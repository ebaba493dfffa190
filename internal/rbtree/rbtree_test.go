package rbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intTree() *Tree[int] { return New[int](func(a, b int) bool { return a < b }) }

// validate checks all red-black invariants and the BST ordering; it returns
// the black-height of the tree.
func validate[T any](t *testing.T, tr *Tree[T]) int {
	t.Helper()
	if tr.root == nil {
		return 0
	}
	if tr.root.color != black {
		t.Fatal("root is red")
	}
	var check func(n *Node[T]) int
	check = func(n *Node[T]) int {
		if n == nil {
			return 1
		}
		if n.color == red {
			if (n.left != nil && n.left.color == red) || (n.right != nil && n.right.color == red) {
				t.Fatal("red node with red child")
			}
		}
		if n.left != nil {
			if n.left.parent != n {
				t.Fatal("broken parent pointer (left)")
			}
			if tr.less(n.Item, n.left.Item) {
				t.Fatal("BST order violated (left)")
			}
		}
		if n.right != nil {
			if n.right.parent != n {
				t.Fatal("broken parent pointer (right)")
			}
			if tr.less(n.right.Item, n.Item) {
				t.Fatal("BST order violated (right)")
			}
		}
		lh := check(n.left)
		rh := check(n.right)
		if lh != rh {
			t.Fatal("unequal black heights")
		}
		if n.color == black {
			lh++
		}
		return lh
	}
	return check(tr.root)
}

func items(tr *Tree[int]) []int {
	var out []int
	for n := tr.Min(); n != nil; n = n.Next() {
		out = append(out, n.Item)
	}
	return out
}

func TestInsertAscend(t *testing.T) {
	tr := intTree()
	vals := []int{5, 3, 8, 1, 4, 7, 9, 2, 6, 0}
	for _, v := range vals {
		tr.Insert(v)
	}
	validate(t, tr)
	got := items(tr)
	for i, v := range got {
		if v != i {
			t.Fatalf("ascend = %v", got)
		}
	}
	if tr.Len() != 10 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestMinMax(t *testing.T) {
	tr := intTree()
	if tr.Min() != nil || tr.Max() != nil {
		t.Fatal("Min/Max of empty tree should be nil")
	}
	for _, v := range []int{42, 17, 99, 3, 64} {
		tr.Insert(v)
	}
	if tr.Min().Item != 3 {
		t.Fatalf("Min = %d", tr.Min().Item)
	}
	if tr.Max().Item != 99 {
		t.Fatalf("Max = %d", tr.Max().Item)
	}
}

func TestDeleteByHandle(t *testing.T) {
	tr := intTree()
	handles := make(map[int]*Node[int])
	for i := 0; i < 100; i++ {
		handles[i] = tr.Insert(i)
	}
	// Delete a scattered subset by handle.
	for i := 0; i < 100; i += 7 {
		tr.Delete(handles[i])
		validate(t, tr)
	}
	got := items(tr)
	for _, v := range got {
		if v%7 == 0 {
			t.Fatalf("deleted item %d still present", v)
		}
	}
	if tr.Len() != 100-15 {
		t.Fatalf("Len = %d, want 85", tr.Len())
	}
}

func TestDeleteRoot(t *testing.T) {
	tr := intTree()
	n := tr.Insert(1)
	tr.Delete(n)
	if tr.Len() != 0 || tr.Min() != nil {
		t.Fatal("tree not empty after deleting only node")
	}
}

func TestDoubleDeletePanics(t *testing.T) {
	tr := intTree()
	n := tr.Insert(1)
	tr.Delete(n)
	defer func() {
		if recover() == nil {
			t.Error("double delete did not panic")
		}
	}()
	tr.Delete(n)
}

func TestInTree(t *testing.T) {
	tr := intTree()
	n := tr.Insert(1)
	if n.tree != tr || !n.Attached() {
		t.Fatal("inserted handle is not a member")
	}
	tr.Delete(n)
	if n.tree != nil || n.Attached() {
		t.Fatal("handle still a member after delete")
	}
	var none *Node[int]
	if none.Attached() {
		t.Fatal("nil handle attached")
	}
}

func TestDuplicatesInsertionOrder(t *testing.T) {
	type kv struct{ key, seq int }
	tr := New[kv](func(a, b kv) bool { return a.key < b.key })
	for i := 0; i < 5; i++ {
		tr.Insert(kv{7, i})
	}
	tr.Insert(kv{3, 99})
	var seqs []int
	for n := tr.Min(); n != nil; n = n.Next() {
		if n.Item.key == 7 {
			seqs = append(seqs, n.Item.seq)
		}
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("equal keys not in insertion order: %v", seqs)
		}
	}
	if tr.Min().Item.key != 3 {
		t.Fatalf("Min key = %d", tr.Min().Item.key)
	}
}

func TestNextPrevWalk(t *testing.T) {
	tr := intTree()
	for i := 0; i < 50; i++ {
		tr.Insert(i * 2)
	}
	i := 0
	for n := tr.Min(); n != nil; n = n.Next() {
		if n.Item != i*2 {
			t.Fatalf("Next walk wrong at %d: %d", i, n.Item)
		}
		i++
	}
	if i != 50 {
		t.Fatalf("walked %d nodes", i)
	}
	i = 49
	for n := tr.Max(); n != nil; n = n.Prev() {
		if n.Item != i*2 {
			t.Fatalf("Prev walk wrong at %d: %d", i, n.Item)
		}
		i--
	}
}

func TestRandomChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := intTree()
	live := make(map[*Node[int]]int)
	for step := 0; step < 5000; step++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			v := rng.Intn(1000)
			live[tr.Insert(v)] = v
		} else {
			for h := range live {
				tr.Delete(h)
				delete(live, h)
				break
			}
		}
		if step%500 == 0 {
			validate(t, tr)
		}
	}
	validate(t, tr)
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
	}
	want := make([]int, 0, len(live))
	for _, v := range live {
		want = append(want, v)
	}
	sort.Ints(want)
	got := items(tr)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("contents diverge at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// Property: inserting any slice then ascending yields the sorted slice.
func TestSortedProperty(t *testing.T) {
	f := func(vals []int16) bool {
		tr := intTree()
		for _, v := range vals {
			tr.Insert(int(v))
		}
		want := make([]int, len(vals))
		for i, v := range vals {
			want[i] = int(v)
		}
		sort.Ints(want)
		got := items(tr)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: deleting every element (in arbitrary handle order) empties the
// tree and never corrupts invariants.
func TestDeleteAllProperty(t *testing.T) {
	f := func(vals []int8, seed int64) bool {
		tr := intTree()
		var hs []*Node[int]
		for _, v := range vals {
			hs = append(hs, tr.Insert(int(v)))
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
		for _, h := range hs {
			tr.Delete(h)
		}
		return tr.Len() == 0 && tr.Min() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	tr := intTree()
	rng := rand.New(rand.NewSource(1))
	hs := make([]*Node[int], 0, 1024)
	for i := 0; i < 1024; i++ {
		hs = append(hs, tr.Insert(rng.Intn(1<<20)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 1023
		tr.Delete(hs[j])
		hs[j] = tr.Insert(rng.Intn(1 << 20))
	}
}

func BenchmarkMin(b *testing.B) {
	tr := intTree()
	for i := 0; i < 4096; i++ {
		tr.Insert(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.Min() == nil {
			b.Fatal("nil min")
		}
	}
}
