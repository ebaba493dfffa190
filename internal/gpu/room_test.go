package gpu

import (
	"math/rand"
	"strings"
	"testing"

	"paella/internal/channel"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
)

// diffLoad drives one random instrumented load drawn from seed and returns
// its transcript: every notifQ record with the time it was delivered, every
// completion and topology change in order, and the final Stats. With
// observe set the Env carries a trace recorder and a telemetry meter, so the
// device takes its per-SM sampling path everywhere. The device has 1–130
// SMs (up to three room words), launches have notification group 1–8, and
// NotifDelay is drawn from the same few values as the block durations, so
// some kernels' waves complete one SM per event. SMs are retired and restored at random times.
// CheckInvariants runs after every step.
func diffLoad(t *testing.T, seed int64, observe bool) string {
	rng := rand.New(rand.NewSource(seed))
	env := sim.NewEnv()
	if observe {
		env.SetRecorder(trace.New())
		env.SetMeter(telemetry.NewMeter("diff", 0))
	}
	durations := []sim.Time{sim.Microsecond, 2 * sim.Microsecond, 3 * sim.Microsecond, 5 * sim.Microsecond}
	nsm := 1 + rng.Intn(130)
	cfg := Config{
		Name: "diff", NumSMs: nsm,
		SM:          SMResources{MaxBlocks: 1 + rng.Intn(16), MaxThreads: 1024, MaxRegisters: 65536, MaxSharedMem: 48 << 10},
		NumHWQueues: 1 + rng.Intn(4),
		NotifDelay:  durations[rng.Intn(len(durations))],
	}
	agg := 1 + rng.Intn(8)
	q := channel.NewNotifQueue(1 << 16)
	d := NewDevice(env, cfg, q)
	if observe && (d.rec == nil || d.mt == nil) {
		t.Fatal("observed run: the device did not pick up its recorder and meter")
	}
	tr := &transcript{env: env}
	buf := make([]channel.Notification, 256)
	d.OnNotifPosted(func() {
		for {
			n := q.Poll(buf)
			for _, r := range buf[:n] {
				tr.logf("notif %v", r)
			}
			if n < len(buf) {
				break
			}
		}
	})
	d.OnTopologyChange(func(online int) { tr.logf("topology online=%d", online) })

	threads := []int{32, 64, 128, 256, 256, 512, 512, 1024, 96, 384}
	for i, n := 0, 1+rng.Intn(40); i < n; i++ {
		id := uint32(i + 1)
		l := &Launch{
			Spec: &KernelSpec{
				Name:            "r",
				Blocks:          1 + rng.Intn(3*nsm),
				ThreadsPerBlock: threads[rng.Intn(len(threads))],
				RegsPerThread:   1 + rng.Intn(32),
				BlockDuration:   durations[rng.Intn(len(durations))],
			},
			KernelID: id,
		}
		if rng.Intn(5) > 0 {
			l.NotifGroup = agg
		}
		l.OnComplete = func() { tr.logf("done %d", id) }
		qi := rng.Intn(d.NumQueues())
		env.At(sim.Time(rng.Intn(200))*sim.Microsecond, func() { d.Submit(qi, l) })
	}
	for i, n := 0, rng.Intn(2*nsm); i < n; i++ {
		sm := rng.Intn(nsm)
		at := sim.Time(rng.Intn(200))*sim.Microsecond + sim.Time(rng.Intn(1000))
		if rng.Intn(2) == 0 {
			env.At(at, func() { d.RetireSM(sm) })
		} else {
			env.At(at, func() { d.RestoreSM(sm) })
		}
	}
	// Bring every SM back at the end, so every launch can finish.
	env.At(300*sim.Microsecond, func() {
		for i := range nsm {
			d.RestoreSM(i)
		}
	})
	for env.Step() {
		d.CheckInvariants()
	}
	tr.logf("stats %+v", d.Stats())
	return tr.b.String()
}

// TestBareMatchesObservedRandom drives random loads twice, bare and with a
// recorder and meter attached, and requires identical transcripts. Both
// runs visit only the SMs whose room bit is set and emit per SM only where
// a notification boundary is crossed (DESIGN.md §15.7); observation only
// adds spans, samples and gauges. TestNotifyMatchesEmitNotifsRandom is the
// reference for the crossing shortcut.
func TestBareMatchesObservedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 60; trial++ {
		seed := rng.Int63()
		bare, observed := diffLoad(t, seed, false), diffLoad(t, seed, true)
		if bare == observed {
			continue
		}
		bl, ol := strings.Split(bare, "\n"), strings.Split(observed, "\n")
		for i := 0; i < len(bl) && i < len(ol); i++ {
			if bl[i] != ol[i] {
				t.Fatalf("trial %d (seed %d): bare run diverges at line %d:\n    bare: %s\nobserved: %s", trial, seed, i+1, bl[i], ol[i])
			}
		}
		t.Fatalf("trial %d (seed %d): bare transcript has %d lines, observed %d", trial, seed, len(bl), len(ol))
	}
}

// BenchmarkPlaceBlocksMixed: a 40-SM T4 kept busy by four queues whose
// instrumented grids never run out, two of 256-thread blocks and two of
// 512-thread blocks, as on the DNN fleets. Any mix of them fills an SM's
// 1024 threads exactly, so most SMs are full and the scan skips them by
// their room bits. The block durations differ, so the waves drift apart;
// each wave completion kicks a pass that refills the freed SMs. Group 16
// puts a notification boundary in some waves but not others. One op is one
// event: a wave completion, a refill pass or a notification post.
func BenchmarkPlaceBlocksMixed(b *testing.B) {
	env := sim.NewEnv()
	cfg := TeslaT4()
	cfg.LaunchOverhead = 0
	q := channel.NewNotifQueue(1 << 12)
	d := NewDevice(env, cfg, q)
	buf := make([]channel.Notification, 256)
	d.OnNotifPosted(func() {
		for q.Poll(buf) == len(buf) {
		}
	})
	for i, k := range []struct {
		threads int
		dur     sim.Time
	}{{256, 10 * sim.Microsecond}, {512, 7 * sim.Microsecond}, {256, 13 * sim.Microsecond}, {512, 11 * sim.Microsecond}} {
		d.Submit(i, &Launch{
			Spec:       &KernelSpec{Name: "endless", Blocks: 1 << 40, ThreadsPerBlock: k.threads, RegsPerThread: 16, BlockDuration: k.dur},
			KernelID:   uint32(i + 1),
			NotifGroup: 16,
		})
	}
	for i := 0; i < 1000; i++ {
		env.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Step()
	}
}
