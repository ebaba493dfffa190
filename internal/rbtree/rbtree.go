// Package rbtree implements a generic intrusive-handle red-black tree.
//
// The Paella dispatcher (§6 of the paper) keeps two ordered indexes over the
// set of runnable jobs: one keyed by estimated remaining processing time
// (for SRPT) and one keyed by the client's deficit counter (for the fairness
// override). Both need O(log n) insert, O(log n) delete-by-handle (a job is
// removed from both trees whenever one of its kernels is dispatched), and
// O(1)-amortized access to the minimum/maximum element. Duplicate keys are
// permitted; ties break by insertion order, which the tree guarantees by
// treating equal keys as "greater than" existing ones on insert.
package rbtree

type color bool

const (
	red   color = false
	black color = true
)

// Node is a handle to an element stored in a Tree. Holding the handle allows
// constant-time location (and O(log n) removal) of the element later.
type Node[T any] struct {
	Item                T
	parent, left, right *Node[T]
	color               color
	tree                *Tree[T]
}

// Tree is an ordered collection of items. Construct with New.
type Tree[T any] struct {
	root *Node[T]
	size int
	less func(a, b T) bool
}

// New returns an empty tree ordered by less. Items comparing equal are kept
// in insertion order.
func New[T any](less func(a, b T) bool) *Tree[T] {
	return &Tree[T]{less: less}
}

// Len returns the number of items in the tree.
func (t *Tree[T]) Len() int { return t.size }

// Insert adds item to the tree and returns its handle.
func (t *Tree[T]) Insert(item T) *Node[T] {
	return t.insertNode(&Node[T]{Item: item})
}

// InsertNode re-inserts a detached node (one previously removed with
// Delete), reusing its allocation; the node's Item is kept. This is the
// zero-allocation path for reposition-heavy callers — delete-then-reinsert
// of the same handle on every update (e.g. the Paella policy's per-dispatch
// deficit bookkeeping) would otherwise allocate a fresh node each time.
func (t *Tree[T]) InsertNode(n *Node[T]) {
	if n.tree != nil {
		panic("rbtree: inserting node already in a tree")
	}
	t.insertNode(n)
}

func (t *Tree[T]) insertNode(n *Node[T]) *Node[T] {
	item := n.Item
	n.color = red
	n.tree = t
	n.parent, n.left, n.right = nil, nil, nil
	// Standard BST insert; equal keys go right so iteration preserves
	// insertion order among equals.
	var parent *Node[T]
	cur := t.root
	for cur != nil {
		parent = cur
		if t.less(item, cur.Item) {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	n.parent = parent
	switch {
	case parent == nil:
		t.root = n
	case t.less(item, parent.Item):
		parent.left = n
	default:
		parent.right = n
	}
	t.size++
	t.insertFixup(n)
	return n
}

// Min returns the handle of the smallest item, or nil if the tree is empty.
func (t *Tree[T]) Min() *Node[T] {
	if t.root == nil {
		return nil
	}
	return t.root.min()
}

// Max returns the handle of the largest item, or nil if the tree is empty.
func (t *Tree[T]) Max() *Node[T] {
	if t.root == nil {
		return nil
	}
	n := t.root
	for n.right != nil {
		n = n.right
	}
	return n
}

func (n *Node[T]) min() *Node[T] {
	for n.left != nil {
		n = n.left
	}
	return n
}

// Next returns the in-order successor of n, or nil.
func (n *Node[T]) Next() *Node[T] {
	if n.right != nil {
		return n.right.min()
	}
	p := n.parent
	for p != nil && n == p.right {
		n, p = p, p.parent
	}
	return p
}

// Prev returns the in-order predecessor of n, or nil.
func (n *Node[T]) Prev() *Node[T] {
	if n.left != nil {
		m := n.left
		for m.right != nil {
			m = m.right
		}
		return m
	}
	p := n.parent
	for p != nil && n == p.left {
		n, p = p, p.parent
	}
	return p
}

// Delete removes the item with handle n from the tree. Deleting a node that
// is not in the tree (already deleted, or from another tree) panics.
func (t *Tree[T]) Delete(n *Node[T]) {
	if n == nil || n.tree != t {
		panic("rbtree: delete of node not in tree")
	}
	n.tree = nil
	t.size--

	// y is the node physically removed from the tree; it has at most one
	// child. If n has two children, y is n's successor and we transplant y
	// into n's position (moving the Node, not copying the Item, so external
	// handles stay valid).
	y := n
	if n.left != nil && n.right != nil {
		y = n.right.min()
	}
	// x is y's only child (possibly nil); xParent is where x ends up.
	var x *Node[T]
	if y.left != nil {
		x = y.left
	} else {
		x = y.right
	}
	xParent := y.parent
	if x != nil {
		x.parent = y.parent
	}
	if y.parent == nil {
		t.root = x
	} else if y == y.parent.left {
		y.parent.left = x
	} else {
		y.parent.right = x
	}
	yWasBlack := y.color == black

	if y != n {
		// Splice y into n's structural position.
		if xParent == n {
			xParent = y
		}
		y.parent = n.parent
		y.left = n.left
		y.right = n.right
		y.color = n.color
		if n.parent == nil {
			t.root = y
		} else if n.parent.left == n {
			n.parent.left = y
		} else {
			n.parent.right = y
		}
		if y.left != nil {
			y.left.parent = y
		}
		if y.right != nil {
			y.right.parent = y
		}
	}
	n.parent, n.left, n.right = nil, nil, nil

	if yWasBlack {
		t.deleteFixup(x, xParent)
	}
}

// Attached reports whether the handle is currently a member of any tree.
// Detached handles (nil, or previously Delete'd) may be re-inserted with
// InsertNode.
func (n *Node[T]) Attached() bool { return n != nil && n.tree != nil }

func (t *Tree[T]) rotateLeft(x *Node[T]) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	if x.parent == nil {
		t.root = y
	} else if x == x.parent.left {
		x.parent.left = y
	} else {
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *Tree[T]) rotateRight(x *Node[T]) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	if x.parent == nil {
		t.root = y
	} else if x == x.parent.right {
		x.parent.right = y
	} else {
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *Tree[T]) insertFixup(z *Node[T]) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			uncle := gp.right
			if uncle != nil && uncle.color == red {
				z.parent.color = black
				uncle.color = black
				gp.color = red
				z = gp
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z)
				}
				z.parent.color = black
				gp.color = red
				t.rotateRight(gp)
			}
		} else {
			uncle := gp.left
			if uncle != nil && uncle.color == red {
				z.parent.color = black
				uncle.color = black
				gp.color = red
				z = gp
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z)
				}
				z.parent.color = black
				gp.color = red
				t.rotateLeft(gp)
			}
		}
	}
	t.root.color = black
}

// deleteFixup restores red-black invariants after removing a black node.
// x may be nil (a leaf), so its parent is tracked explicitly.
func (t *Tree[T]) deleteFixup(x *Node[T], parent *Node[T]) {
	for x != t.root && (x == nil || x.color == black) {
		if x == parent.left {
			w := parent.right
			if w.color == red {
				w.color = black
				parent.color = red
				t.rotateLeft(parent)
				w = parent.right
			}
			if (w.left == nil || w.left.color == black) &&
				(w.right == nil || w.right.color == black) {
				w.color = red
				x = parent
				parent = x.parent
			} else {
				if w.right == nil || w.right.color == black {
					if w.left != nil {
						w.left.color = black
					}
					w.color = red
					t.rotateRight(w)
					w = parent.right
				}
				w.color = parent.color
				parent.color = black
				if w.right != nil {
					w.right.color = black
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nil
			}
		} else {
			w := parent.left
			if w.color == red {
				w.color = black
				parent.color = red
				t.rotateRight(parent)
				w = parent.left
			}
			if (w.left == nil || w.left.color == black) &&
				(w.right == nil || w.right.color == black) {
				w.color = red
				x = parent
				parent = x.parent
			} else {
				if w.left == nil || w.left.color == black {
					if w.right != nil {
						w.right.color = black
					}
					w.color = red
					t.rotateLeft(w)
					w = parent.left
				}
				w.color = parent.color
				parent.color = black
				if w.left != nil {
					w.left.color = black
				}
				t.rotateRight(parent)
				x = t.root
				parent = nil
			}
		}
	}
	if x != nil {
		x.color = black
	}
}
