package sim

// The timer arena is the struct-of-arrays backing store for every scheduled
// event. Instead of one heap-allocated object per scheduling call, records
// live in a single flat []timerRec slice owned by the Env and are addressed
// by int32 index; the free list is index-linked through the records
// themselves (timerRec.link), so steady-state scheduling touches no
// allocator at all — At, After, DoCall and DoCallAfter are all
// allocation-free once the arena has grown to the run's high-water mark.
//
// A record is recycled the moment it fires. Nothing outside the queue ever
// names a record (scheduling returns no handle), so a recycled index needs
// no generation check.

// EventFn is the typed zero-allocation event callback: a top-level function
// or method value applied to a context pointer and one immediate argument.
// Scheduling an EventFn with DoCall/DoCallAfter stores both words inline in
// the timer record, so hot paths that would otherwise allocate a capturing
// closure per event schedule with zero allocations.
type EventFn func(ctx any, arg uint64)

// timerRec is one arena slot: the callback of one scheduled event, exactly
// one of fn or cb set. Its due time lives in the event queue.
type timerRec struct {
	fn   func()
	cb   EventFn
	ctx  any
	arg  uint64
	link int32 // next free record while on the free list
}

// arena is the flat record store plus its index-linked free list.
type arena struct {
	recs     []timerRec
	freeHead int32 // -1 when empty
	nfree    int
}

// alloc returns a record index that is not on the free list; its callback
// words are clear.
func (a *arena) alloc() int32 {
	if a.freeHead >= 0 {
		i := a.freeHead
		r := &a.recs[i]
		a.freeHead = r.link
		a.nfree--
		r.link = -1
		return i
	}
	a.recs = append(a.recs, timerRec{link: -1})
	return int32(len(a.recs) - 1)
}

// free returns a fired record to the free list, clearing its callback
// words for the GC.
func (a *arena) free(i int32) {
	r := &a.recs[i]
	r.fn = nil
	r.cb = nil
	r.ctx = nil
	r.link = a.freeHead
	a.freeHead = i
	a.nfree++
}

// live reports how many records are allocated and not on the free list.
func (a *arena) live() int { return len(a.recs) - a.nfree }
