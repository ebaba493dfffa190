package core

// kernelTable files the records of in-flight kernels under the kernel ids
// their notifQ records carry (§5.2). The dispatcher hands ids out
// consecutively, so a power-of-two ring indexed by an id's low bits finds
// a record without hashing. Each record keeps its own id, so a lookup of a
// retired or never-issued id finds nothing, exactly as a map lookup would.
// When the slot of a new id is still held by a live older kernel (one that
// outlived a full ring of later dispatches), the ring doubles.
type kernelTable struct {
	slots []*inflightKernel
	n     int
}

// kernelTableSize is the ring's initial slot count; it doubles on demand.
const kernelTableSize = 256

func newKernelTable() kernelTable {
	return kernelTable{slots: make([]*inflightKernel, kernelTableSize)}
}

// len returns the number of live records.
func (t *kernelTable) len() int { return t.n }

func (t *kernelTable) slot(id uint32) **inflightKernel {
	return &t.slots[id&uint32(len(t.slots)-1)]
}

// get returns the record filed under id, or nil.
func (t *kernelTable) get(id uint32) *inflightKernel {
	if fl := *t.slot(id); fl != nil && fl.id == id {
		return fl
	}
	return nil
}

// put files fl under id, replacing any record already filed under it.
func (t *kernelTable) put(id uint32, fl *inflightKernel) {
	for {
		s := t.slot(id)
		if *s == nil {
			t.n++
		} else if (*s).id != id {
			t.grow()
			continue
		}
		fl.id = id
		*s = fl
		return
	}
}

// remove drops the record filed under id, if any.
func (t *kernelTable) remove(id uint32) {
	if s := t.slot(id); *s != nil && (*s).id == id {
		*s = nil
		t.n--
	}
}

// grow doubles the ring. Records that shared no slot in the old ring share
// none in the new one: a slot i splits into i and i+len(old).
func (t *kernelTable) grow() {
	old := t.slots
	t.slots = make([]*inflightKernel, 2*len(old))
	for _, fl := range old {
		if fl != nil {
			*t.slot(fl.id) = fl
		}
	}
}
