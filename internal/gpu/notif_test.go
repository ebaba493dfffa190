package gpu

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"paella/internal/channel"
	"paella/internal/sim"
)

// notifTranscriptPath holds the transcript of scenarios that post many
// notification records per device event, recorded with one post event per
// notification emit. TestNotifTranscript requires the device to reproduce
// it byte for byte, including one "post" line per OnNotifPosted call.
const notifTranscriptPath = "testdata/notif_transcript.golden"

// notifCases stress the notification path: many records per wave, posts
// sharing their instant with completions or with zero-delay events, faults
// that drop or duplicate whole emits, and a hook that reacts to posts.
var notifCases = []struct {
	name string
	run  func() string
}{
	{"agg1-eight-sms", func() string {
		// Group 1: every placed or finished block is its own record, so
		// each wave writes several records on each of eight SMs. Two
		// launches with different shapes and durations overlap.
		r := newWaveRig(waveConfig(8, 4, 2, sim.Microsecond), 1)
		r.d.Submit(0, r.launch("a", 40, 256, 10*sim.Microsecond, nil))
		r.d.Submit(1, r.launch("b", 20, 128, 6*sim.Microsecond, nil))
		return r.finish()
	}},
	{"duration-equals-delay-eight-sms", func() string {
		// Posts and completions share every timestamp across eight SMs.
		r := newWaveRig(waveConfig(8, 2, 2, 2*sim.Microsecond), 1)
		r.d.Submit(0, r.launch("e", 40, 256, 2*sim.Microsecond, nil))
		r.d.Submit(1, r.launch("e2", 12, 128, 2*sim.Microsecond, nil))
		return r.finish()
	}},
	{"fault-whole-emit", func() string {
		// Every record from SM 1 is dropped, so its emits write nothing;
		// every record from SM 2 is duplicated.
		r := newWaveRig(waveConfig(4, 4, 2, sim.Microsecond), 1)
		r.d.SetNotifFault(func(n channel.Notification) channel.NotifVerdict {
			switch n.SM() {
			case 1:
				return channel.NotifDrop
			case 2:
				return channel.NotifDup
			}
			return channel.NotifKeep
		})
		r.d.Submit(0, r.launch("f", 24, 256, 5*sim.Microsecond, nil))
		r.d.Submit(1, r.launch("g", 6, 512, 3*sim.Microsecond, nil))
		return r.finish()
	}},
	{"equal-duration-one-pass", func() string {
		// Three launches placed in one scheduling pass, two of them with
		// equal durations, on eight SMs with a record per block.
		r := newWaveRig(waveConfig(8, 4, 3, sim.Microsecond), 1)
		r.d.Submit(0, r.launch("p", 12, 256, 8*sim.Microsecond, nil))
		r.d.Submit(1, r.launch("q", 10, 256, 8*sim.Microsecond, nil))
		r.d.Submit(2, r.launch("s", 9, 128, 5*sim.Microsecond, nil))
		return r.finish()
	}},
	{"zero-delay", func() string {
		// NotifDelay 0: posts land in the instant they are written, next
		// to the scheduling passes and launch callbacks of that instant.
		r := newWaveRig(waveConfig(6, 2, 2, 0), 1)
		r.d.Submit(0, r.launch("z", 18, 256, 3*sim.Microsecond, func() {
			r.d.Submit(1, r.launch("z2", 7, 256, 0, nil))
		}))
		r.d.Submit(1, r.launch("z1", 5, 512, 0, nil))
		return r.finish()
	}},
	{"hook-reacts", func() string {
		// The post hook submits work, kicks, and retires and restores an
		// SM, so each hook call's view of the device matters.
		r := newWaveRig(waveConfig(8, 4, 2, sim.Microsecond), 1)
		posts := 0
		r.onPost = func() {
			posts++
			switch posts {
			case 3:
				r.d.Submit(1, r.launch("h1", 9, 256, 4*sim.Microsecond, nil))
			case 5:
				r.d.RetireSM(3)
			case 12:
				r.d.RestoreSM(3)
			case 20:
				r.d.Submit(0, r.launch("h2", 16, 128, sim.Microsecond, nil))
				r.d.Kick()
			}
		}
		r.d.Submit(0, r.launch("k", 32, 256, 6*sim.Microsecond, nil))
		return r.finish()
	}},
	{"random", func() string {
		// Seeded churn on wider devices with small aggregation groups, a
		// hook that occasionally submits, and delays that coincide with
		// block durations or are zero.
		var out strings.Builder
		for trial := 0; trial < 8; trial++ {
			rng := rand.New(rand.NewSource(int64(500 + trial)))
			delay := sim.Time(rng.Intn(3)) * sim.Microsecond
			r := newWaveRig(waveConfig(4+rng.Intn(9), 1+rng.Intn(6), 1+rng.Intn(3), delay), 1+rng.Intn(2))
			if trial%3 == 2 {
				n := 0
				r.d.SetNotifFault(func(channel.Notification) channel.NotifVerdict {
					n++
					return channel.NotifVerdict(n * 5 % 3)
				})
			}
			dur := func() sim.Time {
				switch rng.Intn(4) {
				case 0:
					return delay
				case 1:
					return 0
				default:
					return sim.Time(1+rng.Intn(8)) * sim.Microsecond
				}
			}
			posts := 0
			r.onPost = func() {
				posts++
				if posts%7 == 0 && posts < 80 {
					r.d.Submit(r.d.NumQueues()-1, r.launch(fmt.Sprintf("t%d.h%d", trial, posts), 1+posts%13, 256, sim.Microsecond, nil))
				}
			}
			for k := 0; k < 10+rng.Intn(10); k++ {
				l := r.launch(fmt.Sprintf("t%d.k%d", trial, k), 1+rng.Intn(40), 64*(1+rng.Intn(8)), dur(), nil)
				q := rng.Intn(r.d.NumQueues())
				at := sim.Time(rng.Intn(30)) * sim.Microsecond
				r.d.env.At(at, func() { r.d.Submit(q, l) })
			}
			fmt.Fprintf(&out, "-- trial %d\n%s", trial, r.finish())
		}
		return out.String()
	}},
}

func TestNotifTranscript(t *testing.T) {
	var b strings.Builder
	for _, c := range notifCases {
		fmt.Fprintf(&b, "== %s\n%s", c.name, c.run())
	}
	matchGolden(t, notifTranscriptPath, b.String())
}

// TestNotifPostIsOneEvent: an instrumented 40-block kernel with group 1
// on an idle 40-SM T4 writes forty placement records from one wave and
// forty completion records from one wave completion, and each set costs
// exactly one post event.
func TestNotifPostIsOneEvent(t *testing.T) {
	env := sim.NewEnv()
	q := channel.NewNotifQueue(1 << 8)
	d := NewDevice(env, TeslaT4(), q)
	records := 0
	buf := make([]channel.Notification, 64)
	d.OnNotifPosted(func() { records += q.Poll(buf) })
	l := &Launch{Spec: &KernelSpec{Name: "k", Blocks: 40, ThreadsPerBlock: 256, RegsPerThread: 16, BlockDuration: 100 * sim.Microsecond}, KernelID: 1, NotifGroup: 1}
	d.Submit(0, l)
	for l.state != LaunchRunning {
		if !env.Step() {
			t.Fatal("kernel never fully placed")
		}
	}
	if env.Pending() != 2 {
		t.Fatalf("after placement: %d pending events, want 2 (one post, one wave completion)", env.Pending())
	}
	s0 := env.Steps()
	env.Run()
	// placement post, wave completion, completion post, scheduling pass
	if got := env.Steps() - s0; got != 4 {
		t.Fatalf("posting and completing took %d events, want 4", got)
	}
	if records != 80 || l.state != LaunchDone {
		t.Fatalf("%d records delivered, state %v; want 80, done", records, l.state)
	}
}

// BenchmarkPlaceBlocksSaturated: a 40-SM T4 kept near full by the heads of
// two queues whose grids never run out. Both place 384-thread blocks, so
// every SM runs two and keeps 256 threads free, too few for a third; the
// free threads add up to far more than one block, so no aggregate check
// can skip the per-SM scan. The heads' block durations differ, so their
// waves drift apart; each wave completion kicks a pass that refills the
// freed SMs and then retries both heads. One op is one event: a wave
// completion or a refill pass.
func BenchmarkPlaceBlocksSaturated(b *testing.B) {
	env := sim.NewEnv()
	cfg := TeslaT4()
	cfg.LaunchOverhead = 0
	d := NewDevice(env, cfg, nil)
	for q, dur := range []sim.Time{10 * sim.Microsecond, 7 * sim.Microsecond} {
		d.Submit(q, &Launch{Spec: &KernelSpec{Name: "endless", Blocks: 1 << 40, ThreadsPerBlock: 384, RegsPerThread: 16, BlockDuration: dur}})
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

// BenchmarkPlaceBlocksIdle: a T4 repeatedly places and completes one
// uninstrumented decode-shaped launch (128 blocks of 256 threads at 64
// registers, four per SM) on an idle device, the shape that dominates an
// LLM replica's placements. One op is one launch: its placement pass, its
// single wave completion and the scheduling pass that wave kicks.
func BenchmarkPlaceBlocksIdle(b *testing.B) {
	env := sim.NewEnv()
	cfg := TeslaT4()
	cfg.LaunchOverhead = 0
	d := NewDevice(env, cfg, nil)
	spec := &KernelSpec{Name: "decode", Blocks: 128, ThreadsPerBlock: 256, RegsPerThread: 64, BlockDuration: 20 * sim.Microsecond}
	l := &Launch{}
	cycle := func() {
		l.Recycle()
		l.Spec = spec
		d.Submit(0, l)
		env.Run()
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
