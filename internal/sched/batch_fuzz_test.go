package sched

import (
	"testing"

	"paella/internal/sim"
)

// FuzzBatchPrimitives drives twin Paella policies through the LLM decode
// loop's life cycle and requires them to agree at every step. Twin a uses
// the one-job calls: an iteration's members are Picked and Removed one at
// a time, charged with one Dispatched each, and survivors are Added back.
// Twin b uses the batch primitives: AppendBatch names the members and
// removes nothing, BatchDispatched charges them, and survivors are
// Requeued in place (retirees Removed). Both must produce the same
// members in the same order, the same Pick whenever no continuous batch
// is in flight, the same Len (b also counts its in-flight members) and
// bit-identical EffectiveDeficit for every client.
//
// Remaining estimates come from a four-value range and arrivals share a
// nanosecond half the time, so ties in both trees are the common case;
// thresholds stay below 4 so the fairness override decides many picks.
func FuzzBatchPrimitives(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 1, 0, 1, 2, 1, 0, 1, 1, 3, 2, 1, 0, 4, 1, 1, 3, 1, 2, 0, 1})
	f.Add(uint8(9), []byte("\x00\x01\x02\x00\x00\x01\x00\x03\x01\x01\x03\x01\x01\x01\x01\x03\x01\x00\x02\x04\x00\x01\x03\x02\x00\x01\x01"))
	f.Add(uint8(3), []byte("\x00\x02\x01\x00\x00\x02\x03\x01\x00\x01\x00\x01\x02\x03\x01\x04\x02\x01\x03\x01\x01\x00\x06\x00\x04\x01\x02\x05\x00"))
	f.Fuzz(func(t *testing.T, thresholdRaw uint8, ops []byte) {
		threshold := float64(thresholdRaw%32) / 8
		a, b := NewPaella(threshold), NewPaella(threshold)

		type twin struct{ a, b *JobEntry }
		var (
			runnable []*twin // in both policies, not riding a batch
			batch    []*twin // the in-flight iteration's members
			static   bool    // the in-flight batch left both policies
			nextID   uint64
			clock    sim.Time
		)
		i := 0
		next := func() byte {
			if i >= len(ops) {
				return 0
			}
			b := ops[i]
			i++
			return b
		}
		take := func(k int) *twin {
			tw := runnable[k]
			runnable = append(runnable[:k], runnable[k+1:]...)
			return tw
		}
		find := func(j *JobEntry) int {
			for k, tw := range runnable {
				if tw.a == j || tw.b == j {
					return k
				}
			}
			t.Fatalf("job %d is not runnable", j.ID)
			return -1
		}
		form := func(width int, isStatic bool) {
			var picked []*twin
			for len(picked) < width {
				j := a.Pick()
				if j == nil {
					break
				}
				a.Remove(j)
				picked = append(picked, take(find(j)))
			}
			got := b.AppendBatch(nil, width)
			if len(got) != len(picked) {
				t.Fatalf("AppendBatch(%d) returned %d jobs, Pick/Remove rounds %d", width, len(got), len(picked))
			}
			for k, j := range got {
				if j != picked[k].b {
					t.Fatalf("AppendBatch pick %d is job %d, Pick/Remove round picked job %d", k, j.ID, picked[k].a.ID)
				}
			}
			static = isStatic
			var entriesA, entriesB []*JobEntry
			for _, tw := range picked {
				if static {
					b.Remove(tw.b)
				} else if next()%4 == 0 {
					// KV stall: the member sits this iteration out.
					a.Add(tw.a)
					b.Requeue(tw.b)
					runnable = append(runnable, tw)
					continue
				}
				batch = append(batch, tw)
				entriesA = append(entriesA, tw.a)
				entriesB = append(entriesB, tw.b)
			}
			for _, j := range entriesA {
				a.Dispatched(j)
			}
			BatchDispatched(b, entriesB)
		}
		iterDone := func() {
			retire := make([]bool, len(batch))
			for k, tw := range batch {
				drop := sim.Time(next() % 3)
				retire[k] = tw.a.Remaining <= drop
				if !retire[k] {
					tw.a.Remaining -= drop
				}
			}
			for k, tw := range batch {
				if retire[k] {
					a.JobFinished(tw.a.Client)
					continue
				}
				a.Add(tw.a)
				runnable = append(runnable, tw)
			}
			// b settles every member before any retiree finishes, as the
			// engine's iterDone does. A member's key changes only just
			// before its own Requeue: the others must sit at their keys.
			for k, tw := range batch {
				tw.b.Remaining = tw.a.Remaining
				switch {
				case static && !retire[k]:
					b.Add(tw.b)
				case static:
				case retire[k]:
					b.Remove(tw.b)
				default:
					b.Requeue(tw.b)
				}
			}
			for k, tw := range batch {
				if retire[k] {
					b.JobFinished(tw.b.Client)
				}
			}
			batch, static = nil, false
		}

		for i < len(ops) {
			switch next() % 7 {
			case 0: // admit a job
				client := int(next() % 4)
				rem := sim.Time(next()%4) + 1
				if next()%2 == 0 {
					clock++
				}
				nextID++
				tw := &twin{}
				for _, p := range []struct {
					pol *PaellaPolicy
					j   **JobEntry
				}{{a, &tw.a}, {b, &tw.b}} {
					*p.j = &JobEntry{ID: nextID, Client: client, Arrival: clock, Total: rem, Remaining: rem}
					p.pol.JobAdmitted(client)
					p.pol.Add(*p.j)
				}
				runnable = append(runnable, tw)
			case 1: // form a continuous iteration
				if batch == nil {
					form(int(next()%4)+1, false)
				}
			case 2: // form a static batch
				if batch == nil {
					form(int(next()%4)+1, true)
				}
			case 3: // the in-flight iteration completes
				if batch != nil {
					iterDone()
				}
			case 4: // a runnable job's estimate changes in place
				if len(runnable) == 0 {
					continue
				}
				tw := runnable[int(next())%len(runnable)]
				a.Remove(tw.a)
				tw.a.Remaining = sim.Time(next()%4) + 1
				a.Add(tw.a)
				tw.b.Remaining = tw.a.Remaining
				b.Requeue(tw.b)
			case 5: // a runnable job leaves (failure or preemption)
				if len(runnable) == 0 {
					continue
				}
				tw := take(int(next()) % len(runnable))
				a.Remove(tw.a)
				b.Remove(tw.b)
				a.JobFinished(tw.a.Client)
				b.JobFinished(tw.b.Client)
			case 6: // one unbatched kernel of a runnable job (a prefill pass)
				if len(runnable) == 0 {
					continue
				}
				tw := runnable[int(next())%len(runnable)]
				a.Dispatched(tw.a)
				BatchDispatched(b, []*JobEntry{tw.b})
			}

			inflight := 0
			if !static {
				inflight = len(batch)
			}
			if a.Len()+inflight != b.Len() || a.Len() != len(runnable) {
				t.Fatalf("Len: a %d, b %d with %d in flight, %d runnable", a.Len(), b.Len(), inflight, len(runnable))
			}
			if len(a.clients) != len(b.clients) {
				t.Fatalf("active clients: a %d, b %d", len(a.clients), len(b.clients))
			}
			for c := 0; c < 4; c++ {
				if da, db := a.EffectiveDeficit(c), b.EffectiveDeficit(c); da != db {
					t.Fatalf("client %d EffectiveDeficit: a %v, b %v", c, da, db)
				}
			}
			if inflight == 0 {
				ja, jb := a.Pick(), b.Pick()
				if (ja == nil) != (jb == nil) || ja != nil && ja.ID != jb.ID {
					t.Fatalf("Pick: a %v, b %v", ja, jb)
				}
			}
		}
	})
}
