package core

import (
	"math/rand"
	"testing"
)

// TestKernelTableMatchesMap drives the kernel table and a map with the same
// operations and compares them after every one: consecutive puts, deletes
// of live ids in random order, a few long-lived ids that outlast many ring
// lengths of later ids (so the ring must grow), replacements, and lookups
// of live, deleted and never-issued ids.
func TestKernelTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	tab := newKernelTable()
	ref := map[uint32]*inflightKernel{}
	var live []uint32 // ids deletable in random order; long-lived ids are not among them
	var next uint32
	check := func(op string, ids ...uint32) {
		t.Helper()
		if tab.len() != len(ref) {
			t.Fatalf("after %s: table counts %d records, map %d", op, tab.len(), len(ref))
		}
		for _, id := range ids {
			if got, want := tab.get(id), ref[id]; got != want {
				t.Fatalf("after %s: get(%d) = %p, map has %p", op, id, got, want)
			}
		}
	}
	put := func(id uint32) {
		fl := &inflightKernel{}
		tab.put(id, fl)
		ref[id] = fl
		check("put", id)
	}
	del := func(id uint32) {
		tab.remove(id)
		delete(ref, id)
		check("remove", id)
	}
	longLived := map[uint32]bool{}
	for step := 0; step < 40000; step++ {
		switch r := rng.Intn(100); {
		case r < 50 || len(live) == 0:
			next++
			put(next)
			if rng.Intn(2000) == 0 {
				longLived[next] = true
			} else {
				live = append(live, next)
			}
		case r < 90:
			i := rng.Intn(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			del(id)
		case r < 92:
			// Replace a live record, as a map assignment would.
			put(live[rng.Intn(len(live))])
		case r < 94:
			del(next + 1 + uint32(rng.Intn(1000))) // never issued: a no-op
		default:
			// Deleted, never-issued and live ids alike.
			check("lookup", uint32(rng.Intn(int(next)+1)), next+1+uint32(rng.Intn(1<<20)), 0)
		}
		if step%1000 == 0 {
			all := make([]uint32, 0, next+2)
			for id := uint32(0); id <= next+1; id++ {
				all = append(all, id)
			}
			check("sweep", all...)
		}
	}
	if len(longLived) == 0 || len(tab.slots) <= kernelTableSize {
		t.Fatalf("%d long-lived ids left the ring at %d slots; want it grown past %d",
			len(longLived), len(tab.slots), kernelTableSize)
	}
	for id := range longLived {
		del(id)
	}
	for _, id := range live {
		del(id)
	}
	if tab.len() != 0 {
		t.Fatalf("table counts %d records after every delete", tab.len())
	}
	for i, fl := range tab.slots {
		if fl != nil {
			t.Fatalf("slot %d still holds kernel %d", i, fl.id)
		}
	}
}
