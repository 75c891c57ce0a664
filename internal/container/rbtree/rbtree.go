// Package rbtree implements a generic left-leaning red-black tree
// (Sedgewick 2008): an ordered map with O(log n) insert, delete, lookup
// and ceiling search.
//
// The extent policy's free-space map (package freelist) uses it as its
// (length, address) index for exact best-fit.
package rbtree

// Tree is an ordered map from K to V. Create one with New; the zero value
// is not usable because it lacks a comparator.
//
// Nodes live in one slice and link by int32 index; a deleted node's slot
// is recycled by the next insert, so a tree whose size has reached a
// steady state allocates nothing, and with pointer-free keys and values
// the garbage collector never scans it.
type Tree[K, V any] struct {
	nodes []node[K, V] // nodes[0] is the nil sentinel: black, zero key and value
	root  int32
	free  int32 // head of the recycled-slot list, linked through left
	less  func(a, b K) bool
	size  int
}

type node[K, V any] struct {
	key         K
	val         V
	left, right int32
	red         bool
}

// New returns an empty tree ordered by less.
func New[K, V any](less func(a, b K) bool) *Tree[K, V] {
	if less == nil {
		panic("rbtree: nil comparator")
	}
	return &Tree[K, V]{nodes: make([]node[K, V], 1), less: less}
}

// Len returns the number of keys in the tree.
func (t *Tree[K, V]) Len() int { return t.size }

func isRed[K, V any](ns []node[K, V], i int32) bool { return ns[i].red }

// newNode takes a slot for a red node holding key and v, recycling a
// deleted node's slot when there is one.
func (t *Tree[K, V]) newNode(key K, v V) int32 {
	n := node[K, V]{key: key, val: v, red: true}
	if i := t.free; i != 0 {
		t.free = t.nodes[i].left
		t.nodes[i] = n
		return i
	}
	t.nodes = append(t.nodes, n)
	return int32(len(t.nodes) - 1)
}

func (t *Tree[K, V]) release(i int32) {
	t.nodes[i] = node[K, V]{left: t.free}
	t.free = i
}

func rotateLeft[K, V any](ns []node[K, V], h int32) int32 {
	x := ns[h].right
	ns[h].right = ns[x].left
	ns[x].left = h
	ns[x].red = ns[h].red
	ns[h].red = true
	return x
}

func rotateRight[K, V any](ns []node[K, V], h int32) int32 {
	x := ns[h].left
	ns[h].left = ns[x].right
	ns[x].right = h
	ns[x].red = ns[h].red
	ns[h].red = true
	return x
}

func flipColors[K, V any](ns []node[K, V], h int32) {
	ns[h].red = !ns[h].red
	ns[ns[h].left].red = !ns[ns[h].left].red
	ns[ns[h].right].red = !ns[ns[h].right].red
}

func fixUp[K, V any](ns []node[K, V], h int32) int32 {
	if isRed(ns, ns[h].right) && !isRed(ns, ns[h].left) {
		h = rotateLeft(ns, h)
	}
	if l := ns[h].left; isRed(ns, l) && isRed(ns, ns[l].left) {
		h = rotateRight(ns, h)
	}
	if isRed(ns, ns[h].left) && isRed(ns, ns[h].right) {
		flipColors(ns, h)
	}
	return h
}

// Set inserts key with value v, replacing any existing value for key.
func (t *Tree[K, V]) Set(key K, v V) {
	// The slot is taken before descending, so the slab never grows under
	// the recursion (a replaced key gives it back).
	n := t.newNode(key, v)
	t.root = t.insert(t.root, n, key)
	t.nodes[t.root].red = false
}

func (t *Tree[K, V]) insert(h, n int32, key K) int32 {
	if h == 0 {
		t.size++
		return n
	}
	ns := t.nodes
	switch {
	case t.less(key, ns[h].key):
		ns[h].left = t.insert(ns[h].left, n, key)
	case t.less(ns[h].key, key):
		ns[h].right = t.insert(ns[h].right, n, key)
	default:
		ns[h].val = ns[n].val
		t.release(n)
	}
	return fixUp(ns, h)
}

// Get returns the value stored for key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	ns := t.nodes
	n := t.root
	for n != 0 {
		switch {
		case t.less(key, ns[n].key):
			n = ns[n].left
		case t.less(ns[n].key, key):
			n = ns[n].right
		default:
			return ns[n].val, true
		}
	}
	return ns[0].val, false
}

// Contains reports whether key is present.
func (t *Tree[K, V]) Contains(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// Ceiling returns the smallest key >= key and its value.
func (t *Tree[K, V]) Ceiling(key K) (K, V, bool) {
	ns := t.nodes
	best := int32(0)
	for n := t.root; n != 0; {
		if t.less(ns[n].key, key) {
			n = ns[n].right
		} else {
			best = n
			n = ns[n].left
		}
	}
	return ns[best].key, ns[best].val, best != 0
}

// Delete removes key, reporting whether it was present.
func (t *Tree[K, V]) Delete(key K) bool {
	if !t.Contains(key) {
		return false
	}
	t.root = t.delete(t.root, key)
	if t.root != 0 {
		t.nodes[t.root].red = false
	}
	t.size--
	return true
}

func moveRedLeft[K, V any](ns []node[K, V], h int32) int32 {
	flipColors(ns, h)
	if r := ns[h].right; isRed(ns, ns[r].left) {
		ns[h].right = rotateRight(ns, r)
		h = rotateLeft(ns, h)
		flipColors(ns, h)
	}
	return h
}

func moveRedRight[K, V any](ns []node[K, V], h int32) int32 {
	flipColors(ns, h)
	if l := ns[h].left; isRed(ns, ns[l].left) {
		h = rotateRight(ns, h)
		flipColors(ns, h)
	}
	return h
}

func (t *Tree[K, V]) deleteMin(h int32) int32 {
	ns := t.nodes
	if ns[h].left == 0 {
		t.release(h)
		return 0
	}
	if l := ns[h].left; !isRed(ns, l) && !isRed(ns, ns[l].left) {
		h = moveRedLeft(ns, h)
	}
	ns[h].left = t.deleteMin(ns[h].left)
	return fixUp(ns, h)
}

func (t *Tree[K, V]) delete(h int32, key K) int32 {
	ns := t.nodes
	if t.less(key, ns[h].key) {
		if l := ns[h].left; !isRed(ns, l) && !isRed(ns, ns[l].left) {
			h = moveRedLeft(ns, h)
		}
		ns[h].left = t.delete(ns[h].left, key)
	} else {
		if isRed(ns, ns[h].left) {
			h = rotateRight(ns, h)
		}
		if !t.less(ns[h].key, key) && ns[h].right == 0 {
			t.release(h)
			return 0
		}
		if r := ns[h].right; !isRed(ns, r) && !isRed(ns, ns[r].left) {
			h = moveRedRight(ns, h)
		}
		if !t.less(ns[h].key, key) && !t.less(key, ns[h].key) {
			m := ns[h].right
			for ns[m].left != 0 {
				m = ns[m].left
			}
			ns[h].key, ns[h].val = ns[m].key, ns[m].val
			ns[h].right = t.deleteMin(ns[h].right)
		} else {
			ns[h].right = t.delete(ns[h].right, key)
		}
	}
	return fixUp(ns, h)
}
