// Package freelist tracks free runs of a linear address space — the
// free-space map behind the extent-based allocation policy (§4.3 of the
// paper), where an extent "may begin at any address" and freed extents
// are "coalesced with adjoining extents if they are free".
//
// The structure is an address-keyed treap augmented with the maximum run
// length per subtree, which makes exact first-fit (lowest address whose
// run is long enough) an O(log n) descent. Exact best-fit needs a second,
// (length, address) red-black index; it exists only once a best-fit
// search has run: the first BestFit builds it from an in-order walk of
// the treap, and from then on every mutation keeps it in sync. A map that
// only ever answers FirstFit never builds or updates it. Adjacent runs are
// coalesced eagerly so the map always holds maximal runs.
//
// Both indexes keep their nodes in one slice each, linked by int32 index,
// and recycle a removed node's slot on the next insert: once the number of
// runs stops growing, allocating and freeing space allocates no memory,
// and the garbage collector never scans the nodes.
package freelist

import (
	"fmt"

	"rofs/internal/container/rbtree"
)

// Run is a free range [Addr, Addr+Len).
type Run struct {
	Addr, Len int64
}

type node struct {
	run         Run
	pri         uint64 // treap heap priority
	maxLen      int64  // max run length in this subtree
	left, right int32  // slab indices; 0 is nil
}

// sizeKey orders the best-fit index by (length, address).
type sizeKey struct {
	len, addr int64
}

func sizeLess(a, b sizeKey) bool {
	if a.len != b.len {
		return a.len < b.len
	}
	return a.addr < b.addr
}

// T is a free-run map. Create with New.
type T struct {
	nodes     []node // treap slab; nodes[0] is the nil sentinel (maxLen 0)
	root      int32
	freeSlot  int32 // head of the recycled-slot list, linked through left
	free      int64
	count     int
	coalesces int64
	seed      uint64 // xorshift state for treap priorities

	// bySize is the best-fit (length, address) index; nil until the
	// first BestFit builds it.
	bySize *rbtree.Tree[sizeKey, struct{}]
}

// New returns an empty map. Priorities are drawn from a deterministic
// generator so runs are reproducible.
func New() *T {
	return &T{
		nodes: make([]node, 1),
		seed:  0x9E3779B97F4A7C15,
	}
}

func (t *T) nextPri() uint64 {
	// xorshift64*
	t.seed ^= t.seed >> 12
	t.seed ^= t.seed << 25
	t.seed ^= t.seed >> 27
	return t.seed * 0x2545F4914F6CDD1D
}

// FreeUnits returns the total free space.
func (t *T) FreeUnits() int64 { return t.free }

// Runs returns the number of (maximal) free runs.
func (t *T) Runs() int { return t.count }

// Coalesces returns how many times Insert merged a run with an adjacent
// free neighbour (each Insert can count up to two merges).
func (t *T) Coalesces() int64 { return t.coalesces }

// MaxRun returns the length of the longest free run (0 when empty).
func (t *T) MaxRun() int64 { return t.nodes[t.root].maxLen }

// Insert adds the free run [addr, addr+len), coalescing with neighbours.
// It panics if the run overlaps existing free space — freeing space twice
// is always an allocator bug.
func (t *T) Insert(addr, length int64) {
	if length <= 0 || addr < 0 {
		panic(fmt.Sprintf("freelist: bad run [%d,+%d)", addr, length))
	}
	// Coalesce with the predecessor and successor runs if adjacent.
	if prev, ok := t.floor(addr); ok {
		if prev.Addr+prev.Len > addr {
			panic(fmt.Sprintf("freelist: run [%d,+%d) overlaps free [%d,+%d)",
				addr, length, prev.Addr, prev.Len))
		}
		if prev.Addr+prev.Len == addr {
			t.remove(prev)
			addr, length = prev.Addr, prev.Len+length
			t.coalesces++
		}
	}
	if next, ok := t.ceiling(addr + 1); ok {
		if next.Addr < addr+length {
			panic(fmt.Sprintf("freelist: run [%d,+%d) overlaps free [%d,+%d)",
				addr, length, next.Addr, next.Len))
		}
		if next.Addr == addr+length {
			t.remove(next)
			length += next.Len
			t.coalesces++
		}
	}
	t.add(Run{addr, length})
}

// Alloc carves [addr, addr+len) out of free space. The range must be
// entirely free (it may be the interior of a run); used by policies that
// choose a specific placement, e.g. contiguous-next-block allocation.
func (t *T) Alloc(addr, length int64) {
	run, ok := t.containing(addr)
	if !ok || run.Addr+run.Len < addr+length {
		panic(fmt.Sprintf("freelist: Alloc [%d,+%d) not inside a free run", addr, length))
	}
	t.remove(run)
	if pre := addr - run.Addr; pre > 0 {
		t.add(Run{run.Addr, pre})
	}
	if post := run.Addr + run.Len - (addr + length); post > 0 {
		t.add(Run{addr + length, post})
	}
}

// FirstFit returns the lowest-addressed free run with length >= n.
func (t *T) FirstFit(n int64) (Run, bool) {
	if t.root == 0 {
		return Run{}, false
	}
	ns := t.nodes
	c := &ns[t.root]
	for {
		if c.left != 0 {
			if l := &ns[c.left]; l.maxLen >= n {
				c = l
				continue
			}
		}
		if c.run.Len >= n {
			return c.run, true
		}
		if c.right == 0 {
			return Run{}, false
		}
		c = &ns[c.right]
	}
}

// BestFit returns the shortest free run with length >= n (lowest address
// on ties). The first call builds the size index.
func (t *T) BestFit(n int64) (Run, bool) {
	if t.bySize == nil {
		t.bySize = rbtree.New[sizeKey, struct{}](sizeLess)
		t.Ascend(func(r Run) bool {
			t.bySize.Set(sizeKey{r.Len, r.Addr}, struct{}{})
			return true
		})
	}
	k, _, ok := t.bySize.Ceiling(sizeKey{len: n, addr: -1 << 62})
	if !ok {
		return Run{}, false
	}
	return Run{Addr: k.addr, Len: k.len}, true
}

// Ascend visits runs in address order until fn returns false.
func (t *T) Ascend(fn func(Run) bool) {
	var walk func(int32) bool
	walk = func(n int32) bool {
		if n == 0 {
			return true
		}
		return walk(t.nodes[n].left) && fn(t.nodes[n].run) && walk(t.nodes[n].right)
	}
	walk(t.root)
}

// --- internal treap machinery ---

func (t *T) add(r Run) {
	// The slot is taken before descending: insertNode never grows the slab.
	i := t.newNode(r)
	t.root = t.insertNode(t.root, i)
	if t.bySize != nil {
		t.bySize.Set(sizeKey{r.Len, r.Addr}, struct{}{})
	}
	t.free += r.Len
	t.count++
}

func (t *T) remove(r Run) {
	t.root = t.deleteNode(t.root, r.Addr)
	if t.bySize != nil && !t.bySize.Delete(sizeKey{r.Len, r.Addr}) {
		panic(fmt.Sprintf("freelist: size index missing run [%d,+%d)", r.Addr, r.Len))
	}
	t.free -= r.Len
	t.count--
}

func (t *T) newNode(r Run) int32 {
	n := node{run: r, pri: t.nextPri(), maxLen: r.Len}
	if i := t.freeSlot; i != 0 {
		t.freeSlot = t.nodes[i].left
		t.nodes[i] = n
		return i
	}
	t.nodes = append(t.nodes, n)
	return int32(len(t.nodes) - 1)
}

func (t *T) release(i int32) {
	t.nodes[i] = node{left: t.freeSlot}
	t.freeSlot = i
}

// fix recomputes i's subtree maximum; the sentinel's maxLen of 0 stands in
// for a missing child.
func (t *T) fix(i int32) {
	ns := t.nodes
	n := &ns[i]
	m := n.run.Len
	if l := ns[n.left].maxLen; l > m {
		m = l
	}
	if r := ns[n.right].maxLen; r > m {
		m = r
	}
	n.maxLen = m
}

func (t *T) insertNode(cur, n int32) int32 {
	if cur == 0 {
		return n
	}
	ns := t.nodes
	c, addr := &ns[cur], ns[n].run.Addr
	if addr == c.run.Addr {
		panic(fmt.Sprintf("freelist: duplicate run address %d", addr))
	}
	if addr < c.run.Addr {
		c.left = t.insertNode(c.left, n)
		if ns[c.left].pri > c.pri {
			cur = t.rotateRight(cur)
		}
	} else {
		c.right = t.insertNode(c.right, n)
		if ns[c.right].pri > c.pri {
			cur = t.rotateLeft(cur)
		}
	}
	t.fix(cur)
	return cur
}

func (t *T) deleteNode(cur int32, addr int64) int32 {
	if cur == 0 {
		panic(fmt.Sprintf("freelist: delete of absent address %d", addr))
	}
	ns := t.nodes
	c := &ns[cur]
	switch {
	case addr < c.run.Addr:
		c.left = t.deleteNode(c.left, addr)
	case addr > c.run.Addr:
		c.right = t.deleteNode(c.right, addr)
	default:
		if c.left == 0 || c.right == 0 {
			child := c.left | c.right
			t.release(cur)
			return child
		}
		if ns[c.left].pri > ns[c.right].pri {
			cur = t.rotateRight(cur)
			ns[cur].right = t.deleteNode(ns[cur].right, addr)
		} else {
			cur = t.rotateLeft(cur)
			ns[cur].left = t.deleteNode(ns[cur].left, addr)
		}
	}
	t.fix(cur)
	return cur
}

func (t *T) rotateRight(h int32) int32 {
	ns := t.nodes
	x := ns[h].left
	ns[h].left = ns[x].right
	ns[x].right = h
	t.fix(h)
	t.fix(x)
	return x
}

func (t *T) rotateLeft(h int32) int32 {
	ns := t.nodes
	x := ns[h].right
	ns[h].right = ns[x].left
	ns[x].left = h
	t.fix(h)
	t.fix(x)
	return x
}

// floor and ceiling return the sentinel's zero Run when nothing matches.
func (t *T) floor(addr int64) (Run, bool) {
	ns := t.nodes
	best := int32(0)
	for cur := t.root; cur != 0; {
		if ns[cur].run.Addr <= addr {
			best = cur
			cur = ns[cur].right
		} else {
			cur = ns[cur].left
		}
	}
	return ns[best].run, best != 0
}

func (t *T) ceiling(addr int64) (Run, bool) {
	ns := t.nodes
	best := int32(0)
	for cur := t.root; cur != 0; {
		if ns[cur].run.Addr >= addr {
			best = cur
			cur = ns[cur].left
		} else {
			cur = ns[cur].right
		}
	}
	return ns[best].run, best != 0
}

// containing returns the run that covers addr, if any.
func (t *T) containing(addr int64) (Run, bool) {
	r, ok := t.floor(addr)
	if !ok || r.Addr+r.Len <= addr {
		return Run{}, false
	}
	return r, true
}
