package sim

// The event queue is a two-level structure exploiting the dominant
// scheduling pattern of this simulator: events are pushed in *runs* that
// share a due time (the wave events of launches placed in one pass with the
// same block duration complete together, and the notification posts of all
// device events in one instant land at now+NotifDelay — one post per device
// event, since a device merges its own emits into one).
//
// Instead of one heap node per timer, same-timestamp runs are stored as
// FIFO *buckets* and the 4-ary min-heap orders buckets by the key
// (at, front-seq) of their earliest live timer. Appending to the open
// bucket is O(1) and touches no heap node at all — the bucket's front (and
// therefore its key) is unchanged. Popping advances the bucket's cursor
// and re-sinks only if the bucket survives. The result is a heap whose
// size — and sift depth — is the number of pending *runs*, not pending
// timers.
//
// Correctness: each bucket holds timers in strictly increasing seq order
// (seq is the Env's global monotone counter, and buckets are append-only),
// so popping the minimum (at, front-seq) bucket key is a k-way merge of
// sorted runs — it yields the exact global (at, seq) total order that the
// flat heap produced. Several buckets may share an `at` (a run ended and a
// later run reused the timestamp); the front-seq tiebreak merges them
// correctly. Determinism and golden traces are therefore unaffected:
// only the constant factor changes.
//
// Storage: buckets hold arena indices (int32), not pointers, and the
// buckets themselves live in a flat slice addressed by index, so the whole
// queue is pointer-free — the GC never traces it, and no queue operation
// allocates once the slices reach the run's high-water mark.
//
// Cancellation: a record remembers its bucket and slot. Cancelling a
// bucket's front is eager (the cursor advances and the bucket's heap key is
// fixed up) so that the heap key always describes a *live* front;
// cancelling a mid-bucket record writes a tombstone (-1) that the pop path
// skips when the cursor gets there.

// bucket is a FIFO run of timer records sharing one due time.
type bucket struct {
	at    Time
	tms   []int32 // arena indices; -1 is a cancelled-record tombstone
	first int32   // cursor: tms[first] is the bucket's earliest live record
	hidx  int32   // slot in eventQueue.h, -1 while on the freelist
}

// bktEntry is one heap slot: the bucket's ordering key (at, seq of its
// current front) inlined next to the bucket index, so sift comparisons
// read contiguous array memory instead of chasing pointers.
type bktEntry struct {
	at  Time
	seq uint64
	bi  int32
}

// eventQueue is the bucketed 4-ary min-heap described above.
type eventQueue struct {
	a       *arena
	h       []bktEntry
	buckets []bucket
	bfree   []int32 // recycled bucket indices (slices keep their capacity)
	lastB   int32   // bucket of the most recent push (the open run), -1 none
	size    int     // live records resident in the queue
}

// len reports the number of live (uncancelled) records in the queue.
func (q *eventQueue) len() int { return q.size }

// minKey returns the (at, seq) of the earliest pending record. Only valid
// when len() > 0; the front of the minimum bucket is always live.
func (q *eventQueue) minKey() (Time, uint64) { return q.h[0].at, q.h[0].seq }

// push inserts record i with key (at, seq). Caller contract (upheld by
// Env): seq is strictly greater than every seq previously pushed, and the
// record is live.
func (q *eventQueue) push(i int32, at Time, seq uint64) {
	q.size++
	// Fast path: the open run is resident and shares the due time — append.
	// Any resident bucket with a matching `at` works (appended seqs are
	// globally increasing, keeping the bucket sorted), so a stale lastB
	// whose index was recycled into a new same-timestamp bucket is still
	// correct.
	if bi := q.lastB; bi >= 0 {
		if b := &q.buckets[bi]; b.hidx >= 0 && b.at == at {
			r := &q.a.recs[i]
			r.bkt, r.slot = bi, int32(len(b.tms))
			b.tms = append(b.tms, i)
			return
		}
	}
	var bi int32
	if n := len(q.bfree); n > 0 {
		bi = q.bfree[n-1]
		q.bfree = q.bfree[:n-1]
	} else {
		q.buckets = append(q.buckets, bucket{})
		bi = int32(len(q.buckets) - 1)
	}
	b := &q.buckets[bi]
	b.at, b.first = at, 0
	b.tms = append(b.tms, i)
	r := &q.a.recs[i]
	r.bkt, r.slot = bi, 0
	q.lastB = bi
	b.hidx = int32(len(q.h))
	q.h = append(q.h, bktEntry{at: at, seq: seq, bi: bi})
	q.siftUp(int(b.hidx))
}

// pop removes and returns the earliest pending record's arena index. The
// record's queue linkage is cleared; the caller owns the record.
func (q *eventQueue) pop() int32 {
	bi := q.h[0].bi
	b := &q.buckets[bi]
	i := b.tms[b.first]
	b.first++
	q.a.recs[i].bkt = bktNone
	q.size--
	q.advance(bi, 0)
	return i
}

// cancel unlinks a bucket-resident record. The caller handles the record's
// generation and free-list bookkeeping.
func (q *eventQueue) cancel(i int32) {
	r := &q.a.recs[i]
	bi, pos := r.bkt, r.slot
	r.bkt = bktNone
	q.size--
	b := &q.buckets[bi]
	if pos != b.first {
		// Mid-bucket: leave a tombstone; advance skips it when the cursor
		// arrives.
		b.tms[pos] = -1
		return
	}
	b.first++
	q.advance(bi, int(b.hidx))
}

// advance skips tombstones at b's cursor, then either retires the drained
// bucket from heap slot hi or refreshes the slot's front-seq key and
// re-sinks it (the key only ever increases).
func (q *eventQueue) advance(bi int32, hi int) {
	b := &q.buckets[bi]
	for int(b.first) < len(b.tms) && b.tms[b.first] < 0 {
		b.first++
	}
	if int(b.first) == len(b.tms) {
		q.removeAt(hi)
		q.release(bi)
		return
	}
	q.h[hi].seq = q.a.recs[b.tms[b.first]].seq
	q.siftDown(hi)
}

// removeAt deletes heap slot i, restoring the heap property.
func (q *eventQueue) removeAt(i int) {
	n := len(q.h) - 1
	q.buckets[q.h[i].bi].hidx = -1
	if i != n {
		q.h[i] = q.h[n]
		q.buckets[q.h[i].bi].hidx = int32(i)
	}
	q.h[n] = bktEntry{bi: -1}
	q.h = q.h[:n]
	if i < n {
		if !q.siftDown(i) {
			q.siftUp(i)
		}
	}
}

// release returns a drained bucket to the freelist.
func (q *eventQueue) release(bi int32) {
	if q.lastB == bi {
		q.lastB = -1
	}
	b := &q.buckets[bi]
	b.tms = b.tms[:0]
	b.first = 0
	q.bfree = append(q.bfree, bi)
}

// less orders heap slots by due time, then front insertion sequence.
func (q *eventQueue) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *eventQueue) swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.buckets[q.h[i].bi].hidx = int32(i)
	q.buckets[q.h[j].bi].hidx = int32(j)
}

func (q *eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) >> 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

// siftDown restores the heap below slot i; it reports whether anything
// moved (removeAt uses that to decide whether to sift up instead).
func (q *eventQueue) siftDown(i int) bool {
	n := len(q.h)
	moved := false
	for {
		first := i<<2 + 1
		if first >= n {
			return moved
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(c, best) {
				best = c
			}
		}
		if !q.less(best, i) {
			return moved
		}
		q.swap(i, best)
		i = best
		moved = true
	}
}
