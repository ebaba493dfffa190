package llm

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"paella/internal/metrics"
	"paella/internal/sched"
	"paella/internal/sim"
)

// pinTraffic is a deterministic request stream built to hit every tie the
// decode loop's batch order depends on: output lengths come from a
// four-value set, so Remaining estimates collide, and every fourth slot
// admits two requests of the same client at the same nanosecond, so
// Arrival stamps collide within a client's jobs.
func pinTraffic(n int) []Request {
	outputs := []int{6, 24, 24, 40}
	var reqs []Request
	at := sim.Time(0)
	for i := 0; len(reqs) < n; i++ {
		client := i % 5
		r := Request{Client: client, Submit: at, Prompt: 5 + 3*(i%4), Output: outputs[i%len(outputs)]}
		reqs = append(reqs, r)
		if i%4 == 0 {
			r.Prompt += 2
			reqs = append(reqs, r)
		}
		at += sim.Time(7+i%11) * sim.Microsecond
	}
	for i := range reqs {
		reqs[i].ID = uint64(i + 1)
	}
	return reqs
}

// pinDigest hashes every record in collection order plus the engines'
// iteration and preemption counts.
func pinDigest(col *metrics.Collector, engines ...*Engine) string {
	h := sha256.New()
	for _, r := range col.Records() {
		fmt.Fprintf(h, "%+v\n", r)
	}
	for _, e := range engines {
		fmt.Fprintf(h, "iterations=%d preemptions=%d\n", e.Iterations(), e.Preemptions())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDecodeLoopPinned pins the decode loop's observable behaviour byte
// for byte: every JobRecord, Iterations and Preemptions, for continuous
// batching under KV pressure (preemptions and stalls), static batching,
// and a prefill→decode handoff whose AdmitDecoded lands while the decode
// engine has an iteration in flight. Each case runs at the production
// fairness threshold and at a low one under which the deficit
// override decides over a third of the picks. Any change to batch formation, requeueing or the
// deficit bookkeeping that is meant to be exact must leave these digests
// unchanged.
func TestDecodeLoopPinned(t *testing.T) {
	reqs := pinTraffic(240)
	single := func(kvPages int, continuous bool) func(threshold float64) string {
		return func(threshold float64) string {
			env := sim.NewEnv()
			col := metrics.NewCollector()
			eng := newEngine(t, env, compileSpec(t, testConfig(kvPages, continuous)), col)
			eng.policy = sched.NewPaella(threshold)
			for _, r := range reqs {
				r := r
				env.At(r.Submit, func() { eng.Admit(r) })
			}
			env.Run()
			eng.Mem().CheckInvariants()
			if eng.inflight != 0 {
				t.Fatalf("%d sequences in flight after drain", eng.inflight)
			}
			return pinDigest(col, eng)
		}
	}
	handoff := func(threshold float64) string {
		env := sim.NewEnv()
		col := metrics.NewCollector()
		pre := newEngine(t, env, compileSpec(t, testConfig(64, true)), col)
		dec := newEngine(t, env, compileSpec(t, testConfig(40, true)), col)
		pre.policy = sched.NewPaella(threshold)
		dec.policy = sched.NewPaella(threshold)
		midIteration := 0
		pre.HandoffPrefill = func(h Handoff) {
			if dec.decodeBusy {
				midIteration++
			}
			dec.AdmitDecoded(h)
		}
		for _, r := range reqs {
			r := r
			env.At(r.Submit, func() { pre.Admit(r) })
		}
		env.Run()
		dec.Mem().CheckInvariants()
		if midIteration == 0 {
			t.Fatal("no handoff landed while the decode engine was mid-iteration")
		}
		return pinDigest(col, pre, dec)
	}
	cases := []struct {
		name string
		run  func(threshold float64) string
		want [2]string // at sched.DefaultFairnessThreshold, at threshold 2
	}{
		{"continuous-kv-pressure", single(40, true), [2]string{
			"a0683c834b519c8f7eec79009832be5685db04d79b75146d4dbddadd9479f53b",
			"fc55d069be6dcef3323d96ae52c6ed4d7cd0f5255e20e8fabfd5cf8f20915e19",
		}},
		{"static", single(64, false), [2]string{
			"e9acbed045da3353ce2a4c2092b9f2d5f4e3465582325d45f2c23d76df9cb444",
			"48c98a02c5269171f37bcea5b5ba38fb9c49a56e83be15b5165037a5acdc3d62",
		}},
		{"handoff", handoff, [2]string{
			"f5dae66ccb092e91f000c8e25170d2bf6479de9691215f2c6b948e345fa00245",
			"8e841e3dab9f14e9e8a03ecab4e5f713b192e616080d005f2ada1cf0ec5c3692",
		}},
	}
	var b strings.Builder
	for _, c := range cases {
		for i, threshold := range []float64{sched.DefaultFairnessThreshold, 2} {
			if got := c.run(threshold); got != c.want[i] {
				fmt.Fprintf(&b, "%s threshold=%v: digest %s, want %s\n", c.name, threshold, got, c.want[i])
			}
		}
	}
	if b.Len() > 0 {
		t.Fatal(b.String())
	}
}
