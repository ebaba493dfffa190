package channel

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestNotificationPacking(t *testing.T) {
	n := Pack(Placement, 21, 16, 0xDEADBEEF)
	if n.Type() != Placement {
		t.Errorf("Type = %v", n.Type())
	}
	if n.SM() != 21 {
		t.Errorf("SM = %d", n.SM())
	}
	if n.GroupCount() != 16 {
		t.Errorf("GroupCount = %d", n.GroupCount())
	}
	if n.KernelID() != 0xDEADBEEF {
		t.Errorf("KernelID = %#x", n.KernelID())
	}
}

func TestNotificationPackingRoundTrip(t *testing.T) {
	f := func(typ uint8, sm uint8, gc uint16, kern uint32) bool {
		nt := NotifType(typ%2 + 1) // Placement or Completion
		n := Pack(nt, sm, gc, kern)
		return n.Type() == nt && n.SM() == sm && n.GroupCount() == gc && n.KernelID() == kern
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNotifTypeString(t *testing.T) {
	if Invalid.String() != "invalid" || Placement.String() != "placement" || Completion.String() != "completion" {
		t.Error("unexpected NotifType strings")
	}
}

func TestNotifQueueSingleThread(t *testing.T) {
	q := NewNotifQueue(16)
	for i := uint32(0); i < 10; i++ {
		q.Push(Pack(Placement, 0, 1, i))
	}
	buf := make([]Notification, 32)
	n := q.Poll(buf)
	if n != 10 {
		t.Fatalf("Poll = %d, want 10", n)
	}
	for i := 0; i < 10; i++ {
		if buf[i].KernelID() != uint32(i) {
			t.Fatalf("out of order at %d: %v", i, buf[i])
		}
	}
	if q.Poll(buf) != 0 {
		t.Fatal("empty queue returned entries")
	}
	if q.head != 10 {
		t.Fatalf("consumer cursor at %d, want 10", q.head)
	}
}

func TestNotifQueueWrapAround(t *testing.T) {
	q := NewNotifQueue(8)
	buf := make([]Notification, 8)
	for round := 0; round < 10; round++ {
		for i := 0; i < 5; i++ {
			q.Push(Pack(Completion, uint8(round), 1, uint32(i)))
		}
		n := q.Poll(buf)
		if n != 5 {
			t.Fatalf("round %d: Poll = %d, want 5", round, n)
		}
	}
}

func TestNotifQueuePollBufLimit(t *testing.T) {
	q := NewNotifQueue(64)
	for i := uint32(0); i < 20; i++ {
		q.Push(Pack(Placement, 0, 1, i))
	}
	buf := make([]Notification, 7)
	if n := q.Poll(buf); n != 7 {
		t.Fatalf("Poll = %d, want 7", n)
	}
	if n := q.Poll(buf); n != 7 {
		t.Fatalf("second Poll = %d, want 7", n)
	}
	if n := q.Poll(buf); n != 6 {
		t.Fatalf("third Poll = %d, want 6", n)
	}
}

func TestNotifQueueConcurrentProducers(t *testing.T) {
	const producers = 8
	const perProducer = 2000
	q := NewNotifQueue(1 << 15) // large enough to never overrun
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(Pack(Placement, uint8(p), 1, uint32(i)))
			}
		}(p)
	}
	seen := make(map[uint8]map[uint32]bool)
	for p := 0; p < producers; p++ {
		seen[uint8(p)] = make(map[uint32]bool)
	}
	total := 0
	buf := make([]Notification, 256)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		n := q.Poll(buf)
		for i := 0; i < n; i++ {
			nt := buf[i]
			if seen[nt.SM()][nt.KernelID()] {
				t.Errorf("duplicate notification %v", nt)
			}
			seen[nt.SM()][nt.KernelID()] = true
		}
		total += n
		if total == producers*perProducer {
			break
		}
		if n == 0 {
			select {
			case <-done:
				// producers finished; drain whatever remains
				for {
					m := q.Poll(buf)
					total += m
					if m == 0 {
						break
					}
				}
				if total != producers*perProducer {
					t.Fatalf("drained %d, want %d", total, producers*perProducer)
				}
				return
			default:
			}
		}
	}
}

func TestNotifQueueInvalidPushPanics(t *testing.T) {
	q := NewNotifQueue(8)
	defer func() {
		if recover() == nil {
			t.Error("pushing Invalid did not panic")
		}
	}()
	q.Push(Notification(0))
}

func TestNotifQueueBadCapacityPanics(t *testing.T) {
	for _, c := range []int{0, 3, 100, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d did not panic", c)
				}
			}()
			NewNotifQueue(c)
		}()
	}
}

func TestSPSCBasic(t *testing.T) {
	r := NewSPSC[int](4)
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on empty ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if !r.Push(i) {
			t.Fatalf("Push %d failed", i)
		}
	}
	if r.Push(99) {
		t.Fatal("Push on full ring succeeded")
	}
	for i := 0; i < 4; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v want %d", v, ok, i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestSPSCConcurrent(t *testing.T) {
	const items = 100000
	r := NewSPSC[uint64](256)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < items; i++ {
			for !r.Push(i) {
			}
		}
	}()
	var next uint64
	for next < items {
		if v, ok := r.Pop(); ok {
			if v != next {
				t.Fatalf("out of order: got %d want %d", v, next)
			}
			next++
		}
	}
	wg.Wait()
}

func TestSPSCWrapProperty(t *testing.T) {
	f := func(ops []bool) bool {
		r := NewSPSC[int](8)
		var pushed, popped int
		for _, push := range ops {
			if push {
				if r.Push(pushed) {
					pushed++
				}
			} else {
				if v, ok := r.Pop(); ok {
					if v != popped {
						return false
					}
					popped++
				}
			}
		}
		return r.Len() == pushed-popped
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNotifQueuePush(b *testing.B) {
	q := NewNotifQueue(1 << 16)
	n := Pack(Placement, 3, 16, 12345)
	buf := make([]Notification, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(n)
		if i&1023 == 1023 {
			q.Poll(buf)
		}
	}
}

func BenchmarkNotifQueuePushParallel(b *testing.B) {
	q := NewNotifQueue(1 << 20)
	n := Pack(Completion, 1, 16, 7)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Push(n)
		}
	})
}

func BenchmarkNotifQueuePollBatch(b *testing.B) {
	q := NewNotifQueue(1 << 12)
	buf := make([]Notification, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			q.Push(Pack(Placement, 0, 1, uint32(j)))
		}
		if got := q.Poll(buf); got != 64 {
			b.Fatalf("Poll = %d", got)
		}
	}
}

func BenchmarkSPSC(b *testing.B) {
	r := NewSPSC[uint64](1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(uint64(i))
		r.Pop()
	}
}
