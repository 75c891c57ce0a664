package rbtree

import (
	"math/rand"
	"sort"
	"testing"
)

func intTree() *Tree[int, string] {
	return New[int, string](func(a, b int) bool { return a < b })
}

func TestEmptyTree(t *testing.T) {
	tr := intTree()
	if tr.Len() != 0 {
		t.Fatal("empty tree has nonzero length")
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if _, _, ok := tr.Ceiling(0); ok {
		t.Fatal("Ceiling on empty tree returned ok")
	}
	if tr.Delete(1) {
		t.Fatal("Delete on empty tree returned true")
	}
}

func TestSetGetReplace(t *testing.T) {
	tr := intTree()
	tr.Set(5, "five")
	tr.Set(3, "three")
	tr.Set(7, "seven")
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if v, ok := tr.Get(3); !ok || v != "three" {
		t.Fatalf("Get(3) = %q, %v", v, ok)
	}
	tr.Set(3, "THREE")
	if tr.Len() != 3 {
		t.Fatal("replace changed length")
	}
	if v, _ := tr.Get(3); v != "THREE" {
		t.Fatalf("replace did not stick: %q", v)
	}
}

func TestNavigation(t *testing.T) {
	tr := intTree()
	for _, k := range []int{10, 20, 30, 40} {
		tr.Set(k, "")
	}
	check := func(name string, gotK int, gotOK bool, wantK int, wantOK bool) {
		t.Helper()
		if gotOK != wantOK || (wantOK && gotK != wantK) {
			t.Errorf("%s = (%d, %v), want (%d, %v)", name, gotK, gotOK, wantK, wantOK)
		}
	}
	k, _, ok := tr.Ceiling(15)
	check("Ceiling(15)", k, ok, 20, true)
	k, _, ok = tr.Ceiling(20)
	check("Ceiling(20)", k, ok, 20, true)
	k, _, ok = tr.Ceiling(41)
	check("Ceiling(41)", k, ok, 0, false)
}

func TestDelete(t *testing.T) {
	tr := intTree()
	keys := []int{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
	for _, k := range keys {
		tr.Set(k, "v")
	}
	if !tr.Delete(5) || tr.Contains(5) {
		t.Fatal("Delete(5) failed")
	}
	if tr.Delete(5) {
		t.Fatal("double delete returned true")
	}
	if tr.Len() != 9 {
		t.Fatalf("Len = %d after delete", tr.Len())
	}
	want := []int{0, 1, 2, 3, 4, 6, 7, 8, 9}
	got := inorder(tr)
	if len(got) != len(want) {
		t.Fatalf("Keys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

// inorder returns the tree's keys in ascending order by an in-order walk
// of the slab.
func inorder[K, V any](tr *Tree[K, V]) []K {
	var out []K
	var walk func(n int32)
	walk = func(n int32) {
		if n == 0 {
			return
		}
		walk(tr.nodes[n].left)
		out = append(out, tr.nodes[n].key)
		walk(tr.nodes[n].right)
	}
	walk(tr.root)
	return out
}

// checkInvariants verifies red-black structural invariants below slab
// index n: no red node has a red child, no right-leaning red links, and
// every root-to-leaf path has the same black height. It also checks that
// nothing wrote the nil sentinel (slot 0). Returns black height.
func checkInvariants(t *testing.T, tr *Tree[int, string], n int32) int {
	t.Helper()
	if s := tr.nodes[0]; s.red || s.left != 0 || s.right != 0 {
		t.Fatal("nil sentinel was written")
	}
	if n == 0 {
		return 0
	}
	if isRed(tr.nodes, tr.nodes[n].right) {
		t.Fatal("right-leaning red link")
	}
	if isRed(tr.nodes, n) && isRed(tr.nodes, tr.nodes[n].left) {
		t.Fatal("consecutive red links")
	}
	lh := checkInvariants(t, tr, tr.nodes[n].left)
	rh := checkInvariants(t, tr, tr.nodes[n].right)
	if lh != rh {
		t.Fatalf("black height mismatch: %d vs %d", lh, rh)
	}
	if !isRed(tr.nodes, n) {
		lh++
	}
	return lh
}

// TestRandomizedAgainstReference drives the tree with random operations and
// compares every observable against a map + sorted slice reference model,
// checking structural invariants as it goes.
func TestRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := intTree()
	ref := map[int]string{}

	sortedKeys := func() []int {
		ks := make([]int, 0, len(ref))
		for k := range ref {
			ks = append(ks, k)
		}
		sort.Ints(ks)
		return ks
	}

	for step := 0; step < 20000; step++ {
		k := rng.Intn(500)
		switch rng.Intn(3) {
		case 0, 1: // insert twice as often as delete so the tree grows
			v := "v"
			tr.Set(k, v)
			ref[k] = v
		case 2:
			got := tr.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", step, k, got, want)
			}
			delete(ref, k)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, tr.Len(), len(ref))
		}
		if step%500 == 0 {
			if tr.root != 0 && isRed(tr.nodes, tr.root) {
				t.Fatal("red root")
			}
			checkInvariants(t, tr, tr.root)
			keys := inorder(tr)
			want := sortedKeys()
			if len(keys) != len(want) {
				t.Fatalf("step %d: keys %v want %v", step, keys, want)
			}
			for i := range keys {
				if keys[i] != want[i] {
					t.Fatalf("step %d: keys differ at %d", step, i)
				}
			}
			// Spot-check navigation against the reference.
			probe := rng.Intn(520) - 10
			wantCeil, okWant := -1, false
			for _, rk := range want {
				if rk >= probe {
					wantCeil, okWant = rk, true
					break
				}
			}
			gotCeil, _, okGot := tr.Ceiling(probe)
			if okGot != okWant || (okWant && gotCeil != wantCeil) {
				t.Fatalf("step %d: Ceiling(%d) = (%d,%v), want (%d,%v)",
					step, probe, gotCeil, okGot, wantCeil, okWant)
			}
		}
	}
}

// TestSteadySizeAllocatesNothing: once a tree has reached its size, a
// Set of a new key paired with a Delete reuses the deleted node's slot,
// so the slab stops growing.
func TestSteadySizeAllocatesNothing(t *testing.T) {
	tr := New[int, struct{}](func(a, b int) bool { return a < b })
	for k := 0; k < 1024; k++ {
		tr.Set(2*k, struct{}{})
	}
	slab := len(tr.nodes)
	k := 0
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Delete(2 * (k % 1024))
		tr.Set(2*(k%1024)+1, struct{}{})
		tr.Delete(2*(k%1024) + 1)
		tr.Set(2*(k%1024), struct{}{})
		k += 7
	})
	if allocs != 0 {
		t.Fatalf("steady-size Set/Delete cycle: %v allocs, want 0", allocs)
	}
	if tr.Len() != 1024 {
		t.Fatalf("Len = %d, want 1024", tr.Len())
	}
	if len(tr.nodes) != slab {
		t.Fatalf("slab grew from %d to %d slots; deleted slots are not reused", slab, len(tr.nodes))
	}
}

// BenchmarkSetDeleteSteady replaces one key per op in a 4,096-key tree:
// the best-fit index's traffic in an aged extent free map.
func BenchmarkSetDeleteSteady(b *testing.B) {
	tr := New[int, struct{}](func(a, b int) bool { return a < b })
	rng := rand.New(rand.NewSource(1))
	keys := make([]int, 4096)
	for i := range keys {
		keys[i] = rng.Intn(1 << 20)
		for tr.Contains(keys[i]) {
			keys[i] = rng.Intn(1 << 20)
		}
		tr.Set(keys[i], struct{}{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		tr.Delete(keys[j])
		k := rng.Intn(1 << 20)
		for tr.Contains(k) {
			k = rng.Intn(1 << 20)
		}
		tr.Set(k, struct{}{})
		keys[j] = k
	}
}

func BenchmarkTreeInsertDelete(b *testing.B) {
	tr := intTree()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(1 << 20)
		tr.Set(k, "")
		if i%2 == 1 {
			tr.Delete(rng.Intn(1 << 20))
		}
	}
}
