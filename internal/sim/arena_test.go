package sim

import (
	"testing"
	"testing/quick"
)

// TestArenaInvariantsQuick drives the timer arena with random alloc/free
// sequences and checks the structural invariants:
// live records never sit on the free list, the free list's length matches
// the nfree counter, every free-list index is in range and distinct, and
// live() conserves (allocated - freed).
func TestArenaInvariantsQuick(t *testing.T) {
	check := func(ops []byte) bool {
		var a arena
		a.freeHead = -1
		live := make(map[int32]bool)
		for _, op := range ops {
			switch {
			case op%3 == 0 || len(live) == 0: // alloc
				i := a.alloc()
				if live[i] {
					t.Logf("alloc returned live record %d", i)
					return false
				}
				if r := &a.recs[i]; r.fn != nil || r.cb != nil || r.ctx != nil {
					t.Logf("alloc returned record %d with callback words set", i)
					return false
				}
				live[i] = true
			default: // set a live record's callback words, then free it
				var victim int32 = -1
				for i := range live {
					if op%3 == 1 && (victim < 0 || i < victim) ||
						op%3 == 2 && i > victim {
						victim = i
					}
				}
				r := &a.recs[victim]
				r.fn, r.ctx = func() {}, victim
				a.free(victim)
				delete(live, victim)
			}
		}
		// Walk the free list: every entry distinct, in range, not live.
		seen := make(map[int32]bool)
		n := 0
		for i := a.freeHead; i >= 0; i = a.recs[i].link {
			if int(i) >= len(a.recs) || seen[i] || live[i] {
				t.Logf("free list corrupt at %d (seen=%v live=%v)", i, seen[i], live[i])
				return false
			}
			seen[i] = true
			n++
		}
		if n != a.nfree {
			t.Logf("free list length %d != nfree %d", n, a.nfree)
			return false
		}
		if a.live() != len(live) {
			t.Logf("live() = %d, model says %d", a.live(), len(live))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
