package sim

import "math/bits"

// The event queue is a monotone radix queue. It relies on Env time never
// moving backwards: every record is pushed due at t ≥ now ≥ last, where
// last is the due time of the most recently popped record.
//
// A record due at `at` sits in bucket Len64(at ^ last): bucket 0 holds the
// records due exactly at last, and bucket k > 0 those whose highest bit
// differing from last is bit k-1. Every record in bucket k is due earlier
// than every record in a higher bucket, so the lowest non-empty bucket
// holds the earliest record. Pop takes bucket 0's front. When bucket 0 is
// empty it first takes the lowest non-empty bucket, sets last to that
// bucket's minimum and re-buckets the bucket's records, front to back, into
// the (empty) buckets below it; the records due at the new last land in
// bucket 0. Moving last within a bucket keeps every higher bucket's records
// where they are, so the placement invariant holds for every record at all
// times.
//
// Exactness: records sharing a due time always share a bucket. Each bucket
// is a FIFO, pushes append, and re-bucketing is stable and fills buckets
// that were empty, so records with one due time stay in push order — the
// Env's scheduling order. Pops therefore follow (at, scheduling order)
// exactly, zero-delay events included, with no sequence number stored.
//
// Storage: buckets hold arena indices (int32) next to their due times, so
// the queue is pointer-free — the GC never traces it — and no operation
// allocates once the buckets reach the run's high-water mark.

// qent is one queued record: its due time inline next to its arena index.
type qent struct {
	at Time
	i  int32
}

// bucket is a FIFO of queued records and the smallest due time among them.
type bucket struct {
	ents []qent
	min  Time
}

// eventQueue is the radix queue described above. Due times are non-negative,
// so at ^ last < 2^63 and 64 buckets cover every record.
type eventQueue struct {
	b    [64]bucket
	mask uint64 // bit k is set exactly when bucket k is non-empty
	last Time   // due time of the last popped record
	head int    // b[0].ents[head] is bucket 0's front
	n    int    // records resident in the queue
}

// len reports the number of records in the queue.
func (q *eventQueue) len() int { return q.n }

// minAt returns the due time of the earliest pending record. Only valid
// when len() > 0.
func (q *eventQueue) minAt() Time { return q.b[bits.TrailingZeros64(q.mask)].min }

// push inserts record i due at at. Caller contract (upheld by Env):
// at ≥ the due time of every record popped so far.
func (q *eventQueue) push(i int32, at Time) {
	q.put(qent{at: at, i: i})
	q.n++
}

// put appends x to the back of its bucket.
func (q *eventQueue) put(x qent) {
	k := bits.Len64(uint64(x.at ^ q.last))
	b := &q.b[k]
	if q.mask&(1<<k) == 0 {
		q.mask |= 1 << k
		b.min = x.at
	} else if x.at < b.min {
		b.min = x.at
	}
	b.ents = append(b.ents, x)
}

// pop removes the earliest pending record and returns its arena index and
// due time; the caller owns the record. Only valid when len() > 0.
func (q *eventQueue) pop() (int32, Time) {
	if q.mask&1 == 0 {
		k := bits.TrailingZeros64(q.mask)
		src := &q.b[k]
		q.last = src.min
		for _, x := range src.ents {
			q.put(x)
		}
		src.ents = src.ents[:0]
		q.mask &^= 1 << k
	}
	b := &q.b[0]
	i := b.ents[q.head].i
	if q.head++; q.head == len(b.ents) {
		b.ents, q.head = b.ents[:0], 0
		q.mask &^= 1
	}
	q.n--
	return i, q.last
}
