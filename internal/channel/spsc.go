package channel

import (
	"fmt"
	"sync/atomic"
)

// SPSC is a bounded single-producer single-consumer ring. It is the building
// block for the client→dispatcher request channel and the dispatcher→client
// completion channel: each client obtains one ring pair inside its shared
// memory region when connecting (§5.1), so there is exactly one writer and
// one reader per ring and no CAS loops are needed — one atomic load plus one
// atomic store per operation.
type SPSC[T any] struct {
	mask uint64
	_    cacheLinePad
	head atomic.Uint64 // consumer cursor: next index to read
	_    cacheLinePad
	tail atomic.Uint64 // producer cursor: next index to write
	_    cacheLinePad
	buf  []T
}

// NewSPSC returns a ring with the given capacity, which must be a power of
// two.
func NewSPSC[T any](capacity int) *SPSC[T] {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic(fmt.Sprintf("channel: SPSC capacity %d is not a power of two", capacity))
	}
	return &SPSC[T]{mask: uint64(capacity - 1), buf: make([]T, capacity)}
}

// Len returns the number of buffered items (approximate under concurrency,
// exact when quiescent).
func (r *SPSC[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Push appends v; it returns false if the ring is full. Only the producer
// goroutine may call Push.
func (r *SPSC[T]) Push(v T) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1) // release: publishes the slot write
	return true
}

// Pop removes and returns the oldest item; ok is false if the ring is
// empty. Only the consumer goroutine may call Pop.
func (r *SPSC[T]) Pop() (v T, ok bool) {
	head := r.head.Load()
	if head == r.tail.Load() {
		return v, false
	}
	v = r.buf[head&r.mask]
	var zero T
	r.buf[head&r.mask] = zero // drop references for GC
	r.head.Store(head + 1)
	return v, true
}
