// Package channel implements the lock-free communication primitives that
// Paella uses on the critical path of inference (§5 of the paper):
//
//   - Notification: a 64-bit packed block placement/completion record
//     (8 bits of type, 8 bits of SM id, 32 bits of kernel id), chosen so a
//     device-side write of the whole record is a single atomic store.
//   - NotifQueue: the device→host notifQ — a multi-producer single-consumer
//     circular buffer with no overrun check (the dispatcher flow-controls
//     demand by delaying kernel dispatches, §5.2), where the consumer
//     recycles entries by storing Invalid after reading.
//   - SPSC: the client→dispatcher request ring and the dispatcher→client
//     completion ring (single producer, single consumer, zero-copy slots).
//
// The client's hybrid interrupt-then-poll wakeup (§5.3, Figure 14) is not
// here: internal/client models it on virtual time.
//
// Unlike the rest of the reproduction, which runs on virtual time, this
// package is real concurrent code exercised by real goroutines; its
// benchmarks back the measured overheads reported for Figures 4 and 15.
package channel

import (
	"fmt"
	"sync/atomic"
)

// NotifType distinguishes notifQ entries. Invalid doubles as the "empty
// slot" sentinel: the consumer stores Invalid after reading an entry, and
// producers always write a non-Invalid type, so a single 64-bit atomic
// load/store per side is sufficient for correctness.
type NotifType uint8

const (
	// Invalid marks a stale or not-yet-written queue slot.
	Invalid NotifType = iota
	// Placement signals that a group of thread blocks was placed on an SM.
	Placement
	// Completion signals that a group of thread blocks finished execution.
	Completion
)

// String returns the human-readable name of the type.
func (t NotifType) String() string {
	switch t {
	case Invalid:
		return "invalid"
	case Placement:
		return "placement"
	case Completion:
		return "completion"
	default:
		return fmt.Sprintf("NotifType(%d)", uint8(t))
	}
}

// Notification is a packed 64-bit notifQ record:
//
//	bits 63..56: NotifType
//	bits 55..48: SM identifier
//	bits 47..32: block-group count (number of blocks this record represents,
//	             after ×16 aggregation; 1..65535)
//	bits 31..0:  unique kernel id assigned by the dispatcher at launch
type Notification uint64

// Pack assembles a notification record.
func Pack(t NotifType, sm uint8, groupCount uint16, kernelID uint32) Notification {
	return Notification(uint64(t)<<56 | uint64(sm)<<48 | uint64(groupCount)<<32 | uint64(kernelID))
}

// Type extracts the notification type.
func (n Notification) Type() NotifType { return NotifType(n >> 56) }

// SM extracts the SM identifier.
func (n Notification) SM() uint8 { return uint8(n >> 48) }

// GroupCount extracts the number of blocks the record aggregates.
func (n Notification) GroupCount() uint16 { return uint16(n >> 32) }

// KernelID extracts the dispatcher-assigned unique kernel id.
func (n Notification) KernelID() uint32 { return uint32(n) }

// String formats the record for diagnostics.
func (n Notification) String() string {
	return fmt.Sprintf("%s{sm=%d n=%d kern=%d}", n.Type(), n.SM(), n.GroupCount(), n.KernelID())
}

// cacheLinePad separates hot atomics to avoid false sharing between the
// producer- and consumer-owned halves of a ring.
type cacheLinePad [64]byte

// NotifQueue is the device→host notification channel: a lock-free
// multi-producer single-consumer circular buffer of Notification records.
//
// Producers claim a slot with a single atomic fetch-add on the tail and
// publish the record with one atomic store — mirroring the paper's design
// where each enqueue costs one atomic increment plus one 64-bit write. The
// queue performs no overrun check; callers must bound outstanding demand
// (the dispatcher caps it by the number of outstanding blocks).
type NotifQueue struct {
	mask  uint64
	tail  atomic.Uint64
	_     cacheLinePad
	head  uint64 // consumer-owned read cursor
	_     cacheLinePad
	slots []atomic.Uint64
}

// NewNotifQueue returns a queue with the given capacity, which must be a
// power of two.
func NewNotifQueue(capacity int) *NotifQueue {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic(fmt.Sprintf("channel: notifQ capacity %d is not a power of two", capacity))
	}
	return &NotifQueue{
		mask:  uint64(capacity - 1),
		slots: make([]atomic.Uint64, capacity),
	}
}

// Push publishes a notification. It never blocks and never fails; writing
// more than a capacity's worth of records beyond the consumer's cursor
// silently overwrites (by design, matching the paper's unchecked
// device-side writer).
func (q *NotifQueue) Push(n Notification) {
	if n.Type() == Invalid {
		panic("channel: pushing Invalid notification")
	}
	idx := q.tail.Add(1) - 1
	q.slots[idx&q.mask].Store(uint64(n))
}

// Poll drains available notifications into buf, returning the count. It
// stops at the first Invalid slot (an unwritten or recycled entry) or when
// buf is full. Only one goroutine may call Poll.
func (q *NotifQueue) Poll(buf []Notification) int {
	n := 0
	for n < len(buf) {
		slot := &q.slots[q.head&q.mask]
		v := slot.Load()
		if Notification(v).Type() == Invalid {
			break
		}
		slot.Store(uint64(Invalid) << 56)
		buf[n] = Notification(v)
		n++
		q.head++
	}
	return n
}

// NotifVerdict is a fault-injection decision about one notification record
// about to be published to the notifQ. The channel itself is lossless in
// the paper's design, but the fault model (internal/fault) treats it as a
// lossy link: a designated-thread write can be lost to a hung SM, or
// replayed by a retried instrumentation epilogue. Consumers of the verdict
// (the device model's emit path) deliver the record verdict-many times.
type NotifVerdict int

const (
	// NotifDrop suppresses the record entirely (a lost completion is the
	// §5.2 failure mode the dispatcher's timeout reconciliation exists for).
	NotifDrop NotifVerdict = 0
	// NotifKeep delivers the record exactly once (the healthy path).
	NotifKeep NotifVerdict = 1
	// NotifDup delivers the record twice (a replayed atomic-counter write;
	// the dispatcher must clamp, not double-count).
	NotifDup NotifVerdict = 2
)

// NotifFault decides the fate of one notification record. Implementations
// must be deterministic functions of their own seeded state; the device
// model consults the hook once per record in emission order.
type NotifFault func(Notification) NotifVerdict
