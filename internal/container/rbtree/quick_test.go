package rbtree

import (
	"sort"
	"testing"
	"testing/quick"
)

// TestQuickInsertDeleteSorted drives the tree with arbitrary key scripts
// via testing/quick: after any interleaving of inserts and deletes, Keys()
// equals the sorted reference set and Len matches.
func TestQuickInsertDeleteSorted(t *testing.T) {
	prop := func(inserts []int16, deletes []int16) bool {
		tr := New[int16, struct{}](func(a, b int16) bool { return a < b })
		ref := map[int16]bool{}
		for _, k := range inserts {
			tr.Set(k, struct{}{})
			ref[k] = true
		}
		for _, k := range deletes {
			got := tr.Delete(k)
			want := ref[k]
			if got != want {
				return false
			}
			delete(ref, k)
		}
		if tr.Len() != len(ref) {
			return false
		}
		want := make([]int, 0, len(ref))
		for k := range ref {
			want = append(want, int(k))
		}
		sort.Ints(want)
		keys := inorder(tr)
		if len(keys) != len(want) {
			return false
		}
		for i := range want {
			if int(keys[i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickNavigationConsistency checks Ceiling against the sorted key
// list for arbitrary trees and probes.
func TestQuickNavigationConsistency(t *testing.T) {
	prop := func(keys []int16, probe int16) bool {
		tr := New[int16, struct{}](func(a, b int16) bool { return a < b })
		set := map[int16]bool{}
		for _, k := range keys {
			tr.Set(k, struct{}{})
			set[k] = true
		}
		var want int16
		var wantOK bool
		for k := range set {
			if k >= probe && (!wantOK || k < want) {
				want, wantOK = k, true
			}
		}
		got, _, ok := tr.Ceiling(probe)
		return ok == wantOK && (!wantOK || got == want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
