package cudart

import (
	"testing"

	"paella/internal/sim"
)

// newLink builds a link priced at the given setup latency and bandwidth.
func newLink(env *sim.Env, latency sim.Time, bytesPerNs float64) *PCIeLink {
	copies := NewCopyModel(Config{MemcpyLatency: latency, PCIeBytesPerNs: bytesPerNs})
	return NewPCIeLink(env, &copies)
}

// TestPCIeLinkSerializesOneDirection: two same-direction transfers issued
// at the same instant complete back to back, not in parallel.
func TestPCIeLinkSerializesOneDirection(t *testing.T) {
	env := sim.NewEnv()
	l := newLink(env, 10*sim.Microsecond, 12.0)
	bytes := 12_000_000 // 1ms of wire time at 12 B/ns
	var t1, t2 sim.Time
	l.Transfer(HostToDevice, bytes, func() { t1 = env.Now() })
	l.Transfer(HostToDevice, bytes, func() { t2 = env.Now() })
	env.Run()
	per := l.copies.Duration(bytes)
	if t1 != per {
		t.Fatalf("first transfer done at %v, want %v", t1, per)
	}
	if t2 != 2*per {
		t.Fatalf("second transfer done at %v, want %v (serialized)", t2, 2*per)
	}
	if q := l.Stats().QueuedNs; q != per {
		t.Fatalf("queued time %v, want %v", q, per)
	}
}

// TestPCIeLinkDirectionsConcurrent: H2D and D2H use separate copy engines
// and do not contend.
func TestPCIeLinkDirectionsConcurrent(t *testing.T) {
	env := sim.NewEnv()
	l := newLink(env, 10*sim.Microsecond, 12.0)
	bytes := 12_000_000
	var up, down sim.Time
	l.Transfer(HostToDevice, bytes, func() { up = env.Now() })
	l.Transfer(DeviceToHost, bytes, func() { down = env.Now() })
	env.Run()
	per := l.copies.Duration(bytes)
	if up != per || down != per {
		t.Fatalf("h2d done %v, d2h done %v, want both %v", up, down, per)
	}
}

// TestPCIeLinkWeightLoadDelaysTensor: a large weight-style transfer ahead
// of a small tensor copy delays the tensor by the weight's full wire time —
// the cold-start interference the vram subsystem exists to model.
func TestPCIeLinkWeightLoadDelaysTensor(t *testing.T) {
	env := sim.NewEnv()
	l := newLink(env, 10*sim.Microsecond, 12.0)
	weights := 96 << 20 // ≈8.4ms on the wire
	tensor := 602112    // a 224×224×3 float32 image
	var tensorDone sim.Time
	l.Transfer(HostToDevice, weights, func() {})
	l.Transfer(HostToDevice, tensor, func() { tensorDone = env.Now() })
	env.Run()
	want := l.copies.Duration(weights) + l.copies.Duration(tensor)
	if tensorDone != want {
		t.Fatalf("tensor done at %v, want %v (queued behind weights)", tensorDone, want)
	}
	alone := l.copies.Duration(tensor)
	if tensorDone < 10*alone {
		t.Fatalf("tensor copy saw no meaningful interference: %v vs %v alone", tensorDone, alone)
	}
}

// TestPCIeLinkIdleGap: a transfer issued after the engine went idle starts
// immediately (busyUntil in the past is not a queue).
func TestPCIeLinkIdleGap(t *testing.T) {
	env := sim.NewEnv()
	l := newLink(env, 0, 1.0)
	var second sim.Time
	l.Transfer(HostToDevice, 100, func() {})
	env.At(1000, func() {
		l.Transfer(HostToDevice, 100, func() { second = env.Now() })
	})
	env.Run()
	if second != 1100 {
		t.Fatalf("second transfer done at %v, want 1100", second)
	}
	if q := l.Stats().QueuedNs; q != 0 {
		t.Fatalf("queued time %v on an idle link", q)
	}
}
