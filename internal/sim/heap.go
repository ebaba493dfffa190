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
// (at, front-seq) of their earliest timer. Appending to the open bucket is
// O(1) and touches no heap node at all — the bucket's front (and therefore
// its key) is unchanged. Popping advances the bucket's cursor and re-sinks
// only if the bucket survives. The result is a heap whose size — and sift
// depth — is the number of pending *runs*, not pending timers.
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
// Events cannot be cancelled, so records leave the queue only from the
// front of the minimum bucket, and a bucket leaves the heap only when it
// drains at the root.

// bucket is a FIFO run of timer records sharing one due time.
type bucket struct {
	at    Time
	tms   []int32 // arena indices
	first int32   // cursor: tms[first] is the bucket's earliest record
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
	// lastB is the bucket of the most recent push (the open run), or -1.
	// release clears it when that bucket drains, so it always names a
	// bucket in the heap.
	lastB int32
	size  int // records resident in the queue
}

// len reports the number of records in the queue.
func (q *eventQueue) len() int { return q.size }

// minKey returns the (at, seq) of the earliest pending record. Only valid
// when len() > 0.
func (q *eventQueue) minKey() (Time, uint64) { return q.h[0].at, q.h[0].seq }

// push inserts record i with key (at, seq). Caller contract (upheld by
// Env): seq is strictly greater than every seq previously pushed.
func (q *eventQueue) push(i int32, at Time, seq uint64) {
	q.size++
	// Fast path: the open run shares the due time — append. Appended seqs
	// are globally increasing, so the bucket stays sorted.
	if bi := q.lastB; bi >= 0 {
		if b := &q.buckets[bi]; b.at == at {
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
	q.lastB = bi
	q.h = append(q.h, bktEntry{at: at, seq: seq, bi: bi})
	q.siftUp(len(q.h) - 1)
}

// pop removes and returns the earliest pending record's arena index; the
// caller owns the record. The root bucket's cursor advances; a drained
// bucket leaves the heap, a surviving one takes its next front's seq as
// its key (which only ever increases) and re-sinks.
func (q *eventQueue) pop() int32 {
	bi := q.h[0].bi
	b := &q.buckets[bi]
	i := b.tms[b.first]
	b.first++
	q.size--
	if int(b.first) == len(b.tms) {
		n := len(q.h) - 1
		q.h[0] = q.h[n]
		q.h = q.h[:n]
		if n > 0 {
			q.siftDown(0)
		}
		q.release(bi)
		return i
	}
	q.h[0].seq = q.a.recs[b.tms[b.first]].seq
	q.siftDown(0)
	return i
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

func (q *eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) >> 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.h)
	for {
		first := i<<2 + 1
		if first >= n {
			return
		}
		best := first
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			if q.less(c, best) {
				best = c
			}
		}
		if !q.less(best, i) {
			return
		}
		q.h[i], q.h[best] = q.h[best], q.h[i]
		i = best
	}
}
