package gpu

import (
	"fmt"
	"strings"
	"testing"

	"paella/internal/sim"
)

// observeTranscriptPath holds the transcript of observeCases, recorded with
// the device completing a wave one SM at a time and emitting every SM's
// samples and records on every placement and completion.
// TestObserveTranscript requires the device to reproduce it byte for byte.
const observeTranscriptPath = "testdata/observe_transcript.golden"

// observeCases cover what the wave and notification transcripts do not:
// uninstrumented launches, placements on an idle device, the order of a
// final wave's kick and OnComplete, and waves whose block counts land
// exactly on a notification boundary.
var observeCases = []struct {
	name string
	run  func() string
}{
	{"uninstrumented", func() string {
		// Uninstrumented launches write no records; one instrumented launch
		// shares the device with them, so posts still happen.
		r := newWaveRig(waveConfig(4, 2, 2, sim.Microsecond), 2)
		for i, blocks := range []int{11, 6, 3} {
			l := r.launch(fmt.Sprintf("u%d", i), blocks, 256, sim.Time(3+2*i)*sim.Microsecond, nil)
			l.NotifGroup = 0
			r.d.Submit(i%2, l)
		}
		r.d.Submit(1, r.launch("i", 7, 512, 4*sim.Microsecond, nil))
		return r.finish()
	}},
	{"idle-device", func() string {
		// Launches placed on an idle device: fewer blocks than SMs, a
		// split that leaves a remainder, more blocks than fit, and, after
		// an SM is retired on the idle device, a launch that must avoid it.
		r := newWaveRig(waveConfig(5, 3, 1, sim.Microsecond), 2)
		logResident := func() { r.tr.logf("resident=%d", r.d.resident) }
		r.d.Submit(0, r.launch("few", 3, 256, 2*sim.Microsecond, logResident))
		r.d.env.At(10*sim.Microsecond, func() {
			r.d.Submit(0, r.launch("split", 13, 128, 2*sim.Microsecond, logResident))
		})
		r.d.env.At(20*sim.Microsecond, func() {
			r.d.Submit(0, r.launch("over", 22, 256, 3*sim.Microsecond, logResident))
		})
		r.d.env.At(40*sim.Microsecond, func() { r.d.RetireSM(2) })
		r.d.env.At(41*sim.Microsecond, func() {
			r.d.Submit(0, r.launch("retired", 14, 256, 2*sim.Microsecond, logResident))
		})
		r.d.env.At(50*sim.Microsecond, func() { r.d.RestoreSM(2) })
		return r.finish()
	}},
	{"final-wave-kick-order", func() string {
		// Each OnComplete logs the resident blocks while another launch
		// waits for capacity. A one-SM final wave scheduled OnComplete
		// before its kick, so the waiter is not yet placed; a two-SM final
		// wave kicked first, so the waiter is placed before OnComplete.
		var out strings.Builder
		for _, first := range []int{1, 2} {
			r := newWaveRig(waveConfig(2, 1, 2, sim.Microsecond), 1)
			logResident := func() { r.tr.logf("resident=%d", r.d.resident) }
			r.d.Submit(0, r.launch(fmt.Sprintf("a%d", first), first, 1024, 10*sim.Microsecond, logResident))
			if first == 1 {
				r.d.Submit(0, r.launch("c", 1, 1024, 20*sim.Microsecond, logResident))
			}
			r.d.env.At(sim.Microsecond, func() {
				r.d.Submit(1, r.launch("b", 1, 1024, 5*sim.Microsecond, logResident))
			})
			fmt.Fprintf(&out, "-- first wave on %d SM(s)\n%s", first, r.finish())
		}
		return out.String()
	}},
	{"count-lands-on-next", func() string {
		// AggGroup 6 with waves of three blocks: the second wave's
		// placement and completion counts land exactly on the next record
		// due, and the first wave's fall short of it.
		r := newWaveRig(waveConfig(3, 1, 1, sim.Microsecond), 6)
		r.d.Submit(0, r.launch("land", 12, 256, 4*sim.Microsecond, nil))
		// AggGroup 4 on four SMs: every wave of four lands on a boundary.
		r2 := newWaveRig(waveConfig(4, 1, 1, sim.Microsecond), 4)
		r2.d.Submit(0, r2.launch("land4", 10, 256, 3*sim.Microsecond, nil))
		return r.finish() + r2.finish()
	}},
}

func observeTranscript() string {
	var b strings.Builder
	for _, c := range observeCases {
		fmt.Fprintf(&b, "== %s\n%s", c.name, c.run())
	}
	return b.String()
}

func TestObserveTranscript(t *testing.T) {
	matchGolden(t, observeTranscriptPath, observeTranscript())
}

// TestObservationDoesNotChangeBehaviour runs every transcript scenario
// twice, once on a bare Env and once with a trace recorder and a telemetry
// meter attached, and requires byte-identical transcripts: the same notifQ
// records, device state at each post, onAllPlaced and OnComplete times and
// final Stats. The device skips its per-SM sampling when nothing observes
// it, and observation must not select any other path.
func TestObservationDoesNotChangeBehaviour(t *testing.T) {
	var cases []struct {
		name string
		run  func() string
	}
	cases = append(cases, waveCases...)
	cases = append(cases, notifCases...)
	cases = append(cases, observeCases...)
	defer func() { observeRigs = false }()
	for _, c := range cases {
		observeRigs = false
		bare := c.run()
		observeRigs = true
		observed := c.run()
		if bare == observed {
			continue
		}
		bl, ol := strings.Split(bare, "\n"), strings.Split(observed, "\n")
		for i := 0; i < len(bl) && i < len(ol); i++ {
			if bl[i] != ol[i] {
				t.Fatalf("%s: observed run diverges at line %d:\n    bare: %s\nobserved: %s", c.name, i+1, bl[i], ol[i])
			}
		}
		t.Fatalf("%s: observed transcript has %d lines, bare %d", c.name, len(ol), len(bl))
	}
}
