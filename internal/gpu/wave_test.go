package gpu

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"paella/internal/channel"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
)

// waveTranscriptPath holds the device-level transcript recorded with the
// per-(SM, wave) completion events that the wave-event scheduler replaced.
// TestWaveTranscript requires the current scheduler to reproduce it byte
// for byte: every notifQ record in push order, every onAllPlaced and
// OnComplete time, every topology change, and the final Stats().
const waveTranscriptPath = "testdata/wave_transcript.golden"

// transcript is an append-only log of a device's externally visible
// behaviour, each line stamped with the virtual time it happened at.
type transcript struct {
	env *sim.Env
	b   strings.Builder
}

func (tr *transcript) logf(format string, args ...any) {
	fmt.Fprintf(&tr.b, "%d ", int64(tr.env.Now()))
	fmt.Fprintf(&tr.b, format, args...)
	tr.b.WriteByte('\n')
}

// waveConfig is a small device: sms SMs of maxBlocks slots and 1024
// threads each.
func waveConfig(sms, maxBlocks, queues int, notifDelay sim.Time) Config {
	return Config{
		Name: "wave", NumSMs: sms,
		SM:          SMResources{MaxBlocks: maxBlocks, MaxThreads: 1024, MaxRegisters: 65536, MaxSharedMem: 48 << 10},
		NumHWQueues: queues,
		NotifDelay:  notifDelay,
	}
}

// waveRig wires a device whose notifQ is drained into the transcript on
// every post, so records appear in exactly the order they were pushed,
// together with the device state at the moment of the post.
type waveRig struct {
	tr     *transcript
	d      *Device
	nextID uint32
	// agg is the notification group of the rig's launches.
	agg int
	// onPost, if set, runs inside the notification hook after the drained
	// records are logged, standing in for a dispatcher that reacts to the
	// post by submitting work or changing the device.
	onPost func()
}

func newWaveRig(cfg Config, agg int) *waveRig {
	env := sim.NewEnv()
	if observeRigs {
		env.SetRecorder(trace.New())
		env.SetMeter(telemetry.NewMeter("wave", 0))
	}
	tr := &transcript{env: env}
	q := channel.NewNotifQueue(1 << 12)
	d := NewDevice(env, cfg, q)
	if observeRigs && (d.rec == nil || d.mt == nil) {
		panic("observed rig: the device did not pick up its recorder and meter")
	}
	buf := make([]channel.Notification, 64)
	r := &waveRig{tr: tr, d: d, agg: agg}
	d.OnNotifPosted(func() {
		// The device state a dispatcher woken by this post would see.
		tr.logf("post resident=%d completed=%d", d.resident, d.stats.BlocksCompleted)
		for {
			n := q.Poll(buf)
			for _, r := range buf[:n] {
				tr.logf("notif %v", r)
			}
			if n < len(buf) {
				break
			}
		}
		if r.onPost != nil {
			r.onPost()
		}
	})
	d.OnTopologyChange(func(online int) { tr.logf("topology online=%d", online) })
	return r
}

// observeRigs, when set, attaches a trace recorder and a telemetry meter to
// every new rig's Env, so the device samples its occupancy and writes SM
// and queue tracks (TestObservationDoesNotChangeBehaviour).
var observeRigs bool

// launch builds an instrumented launch whose placement and completion are
// logged; then, if non-nil, runs after the completion is logged (used to
// make later submissions depend on completion order).
func (r *waveRig) launch(name string, blocks, threads int, dur sim.Time, then func()) *Launch {
	r.nextID++
	l := &Launch{
		Spec:       &KernelSpec{Name: name, Blocks: blocks, ThreadsPerBlock: threads, RegsPerThread: 16, BlockDuration: dur},
		KernelID:   r.nextID,
		JobTag:     name,
		NotifGroup: r.agg,
	}
	l.onAllPlaced = func() { r.tr.logf("placed %s", name) }
	l.OnComplete = func() {
		r.tr.logf("done %s", name)
		if then != nil {
			then()
		}
	}
	return l
}

func (r *waveRig) finish() string {
	r.d.env.Run()
	r.d.CheckInvariants()
	r.tr.logf("stats %+v", r.d.Stats())
	return r.tr.b.String()
}

// waveCases are the transcript scenarios, each aimed at one way a
// coalesced completion event could reorder what per-SM events did.
var waveCases = []struct {
	name string
	run  func() string
}{
	{"multi-block-waves", func() string {
		// 40 blocks at 4 per SM on 4 SMs: three waves, each putting
		// several blocks on every SM, with a follow-up kernel submitted
		// from the first completion.
		r := newWaveRig(waveConfig(4, 4, 2, sim.Microsecond), 4)
		r.d.Submit(0, r.launch("a", 40, 128, 10*sim.Microsecond, func() {
			r.d.Submit(0, r.launch("a2", 6, 256, 3*sim.Microsecond, nil))
		}))
		r.d.Submit(1, r.launch("b", 6, 256, 7*sim.Microsecond, nil))
		return r.finish()
	}},
	{"duration-equals-notif-delay", func() string {
		// Every block posts a record (AggGroup 1) that lands at exactly
		// the instant the blocks finish, so posts and completions share
		// timestamps and interleave.
		r := newWaveRig(waveConfig(3, 2, 2, 2*sim.Microsecond), 1)
		r.d.Submit(0, r.launch("eq", 12, 256, 2*sim.Microsecond, nil))
		r.d.Submit(1, r.launch("eq2", 3, 256, 2*sim.Microsecond, nil))
		return r.finish()
	}},
	{"zero-duration", func() string {
		// Blocks that finish in the instant they are placed, with and
		// without a zero notification delay.
		r := newWaveRig(waveConfig(3, 2, 2, 0), 2)
		r.d.Submit(0, r.launch("z0", 9, 256, 0, nil))
		r.d.Submit(1, r.launch("z1", 4, 256, sim.Microsecond, nil))
		out := r.finish()
		r = newWaveRig(waveConfig(3, 2, 2, sim.Microsecond), 2)
		r.d.Submit(0, r.launch("z2", 9, 256, 0, nil))
		return out + r.finish()
	}},
	{"retire-mid-wave", func() string {
		r := newWaveRig(waveConfig(4, 4, 1, sim.Microsecond), 4)
		r.d.Submit(0, r.launch("r", 32, 256, 10*sim.Microsecond, nil))
		r.d.Submit(0, r.launch("r2", 12, 256, 4*sim.Microsecond, nil))
		r.d.env.At(5*sim.Microsecond, func() { r.d.RetireSM(1) })
		r.d.env.At(12*sim.Microsecond, func() { r.d.RetireSM(2) })
		r.d.env.At(25*sim.Microsecond, func() { r.d.RestoreSM(1) })
		return r.finish()
	}},
	{"notif-fault", func() string {
		r := newWaveRig(waveConfig(4, 4, 2, sim.Microsecond), 2)
		verdicts := []channel.NotifVerdict{channel.NotifKeep, channel.NotifDrop, channel.NotifDup, channel.NotifKeep, channel.NotifDup, channel.NotifDrop}
		i := 0
		r.d.SetNotifFault(func(channel.Notification) channel.NotifVerdict {
			v := verdicts[i%len(verdicts)]
			i++
			return v
		})
		r.d.Submit(0, r.launch("f", 24, 256, 5*sim.Microsecond, nil))
		r.d.Submit(1, r.launch("g", 10, 512, 3*sim.Microsecond, nil))
		return r.finish()
	}},
	{"same-duration-one-pass", func() string {
		// Two launches from two queues placed in the same scheduling pass
		// with the same block duration: their waves complete together.
		r := newWaveRig(waveConfig(4, 4, 2, sim.Microsecond), 4)
		r.d.Submit(0, r.launch("p", 6, 256, 8*sim.Microsecond, nil))
		r.d.Submit(1, r.launch("q", 6, 256, 8*sim.Microsecond, func() {
			r.d.Submit(0, r.launch("q2", 5, 128, 8*sim.Microsecond, nil))
		}))
		return r.finish()
	}},
	{"random", func() string {
		// Seeded churn mixing everything above: durations equal to the
		// notification delay or zero, stream-style readiness, follow-up
		// submissions, SM retirement and a lossy notifQ.
		var out strings.Builder
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			delay := sim.Time(1+rng.Intn(3)) * sim.Microsecond
			r := newWaveRig(waveConfig(2+rng.Intn(5), 1+rng.Intn(6), 1+rng.Intn(3), delay), 1+rng.Intn(4))
			if trial%2 == 1 {
				n := 0
				r.d.SetNotifFault(func(channel.Notification) channel.NotifVerdict {
					n++
					return channel.NotifVerdict(n * 7 % 3)
				})
			}
			dur := func() sim.Time {
				switch rng.Intn(4) {
				case 0:
					return delay
				case 1:
					return 0
				default:
					return sim.Time(1+rng.Intn(12)) * sim.Microsecond
				}
			}
			gate := false
			for k := 0; k < 12+rng.Intn(12); k++ {
				name := fmt.Sprintf("t%d.k%d", trial, k)
				var then func()
				if rng.Intn(3) == 0 {
					b, d := 1+rng.Intn(20), dur()
					then = func() {
						gate = true
						r.d.Submit(0, r.launch(name+"+", b, 256, d, nil))
					}
				}
				l := r.launch(name, 1+rng.Intn(30), 64*(1+rng.Intn(8)), dur(), then)
				if rng.Intn(5) == 0 {
					l.Ready = func() bool { return gate }
				}
				q := rng.Intn(r.d.NumQueues())
				at := sim.Time(rng.Intn(40)) * sim.Microsecond
				r.d.env.At(at, func() { r.d.Submit(q, l) })
			}
			sm := rng.Intn(r.d.cfg.NumSMs)
			r.d.env.At(sim.Time(rng.Intn(20))*sim.Microsecond, func() { r.d.RetireSM(sm) })
			r.d.env.At(sim.Time(20+rng.Intn(20))*sim.Microsecond, func() {
				r.d.RestoreSM(sm)
				gate = true
				r.d.Kick()
			})
			fmt.Fprintf(&out, "-- trial %d\n%s", trial, r.finish())
		}
		return out.String()
	}},
}

func waveTranscript() string {
	var b strings.Builder
	for _, c := range waveCases {
		fmt.Fprintf(&b, "== %s\n%s", c.name, c.run())
	}
	return b.String()
}

func TestWaveTranscript(t *testing.T) {
	matchGolden(t, waveTranscriptPath, waveTranscript())
}

// updateGolden rewrites the transcript goldens instead of comparing. The
// goldens pin the behaviour of the per-event scheduler they were recorded
// with; regenerate them only for an intended change of device behaviour.
var updateGolden = flag.Bool("update", false, "rewrite testdata transcript goldens")

// matchGolden fails the test at the first line where got departs from the
// golden file at path.
func matchGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s diverges at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: transcript length %d lines, want %d", path, len(gl), len(wl))
}

// TestWaveIsOneEvent: a 40-block kernel on an idle 40-SM T4 puts one block
// on every SM in a single wave, and completing all forty costs exactly one
// event, followed by the one scheduling pass the freed SMs request.
func TestWaveIsOneEvent(t *testing.T) {
	env := sim.NewEnv()
	d := NewDevice(env, TeslaT4(), nil)
	l := &Launch{Spec: &KernelSpec{Name: "k", Blocks: 40, ThreadsPerBlock: 256, RegsPerThread: 16, BlockDuration: 100 * sim.Microsecond}}
	d.Submit(0, l)
	for l.state != LaunchRunning {
		if !env.Step() {
			t.Fatal("kernel never fully placed")
		}
	}
	if d.resident != 40 || env.Pending() != 1 {
		t.Fatalf("after placement: %d resident blocks, %d pending events; want 40 and 1", d.resident, env.Pending())
	}
	s0 := env.Steps()
	env.Run()
	if got := env.Steps() - s0; got != 2 {
		t.Fatalf("completing the wave took %d events, want 2 (one completion, one scheduling pass)", got)
	}
	if st := d.Stats(); st.BlocksCompleted != 40 || l.state != LaunchDone {
		t.Fatalf("wave did not complete: %+v, state %v", st, l.state)
	}
}

// TestWaveEventsAllocFree: in steady state a launch's placement, wave
// completion and notification delivery allocate nothing — the wave and
// post events come from the device's pools.
func TestWaveEventsAllocFree(t *testing.T) {
	env := sim.NewEnv()
	q := channel.NewNotifQueue(1 << 10)
	d := NewDevice(env, waveConfig(4, 4, 2, sim.Microsecond), q)
	buf := make([]channel.Notification, 64)
	d.OnNotifPosted(func() { q.Poll(buf) })
	spec := &KernelSpec{Name: "k", Blocks: 24, ThreadsPerBlock: 256, RegsPerThread: 16, BlockDuration: 5 * sim.Microsecond}
	l := &Launch{}
	cycle := func() {
		l.Recycle()
		l.Spec, l.KernelID, l.NotifGroup = spec, 1, 4
		d.Submit(0, l)
		env.Run()
	}
	cycle() // warm the pools
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("launch cycle allocates %.2f, want 0", avg)
	}
	if l.state != LaunchDone {
		t.Fatal("launch did not complete")
	}
}
