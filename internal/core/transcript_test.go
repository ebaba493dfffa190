package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"paella/internal/compiler"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
)

// dispatchTranscriptPath holds the dispatcher-loop transcript of every
// dispatchCase: each loop action (admit, notification batch, dispatch or
// op issue, idle wait, wake) and each client-side event, with its virtual
// time, Env.Steps() and the dispatcher Stats at that moment. It was
// recorded with the loop running as a coroutine process; the loop must
// reproduce it byte for byte however it is implemented.
const dispatchTranscriptPath = "testdata/dispatch_transcript.golden"

var updateGolden = flag.Bool("update", false, "rewrite testdata transcript goldens")

// dispatchCase is one dispatcher configuration the transcript pins.
type dispatchCase struct {
	name     string
	mode     Mode
	maxBatch int
}

var dispatchCases = []dispatchCase{
	{"gated-fifo-batch1", ModeGated, 1},
	{"gated-fifo-batch4", ModeGated, 4},
	{"kernel-by-kernel", ModeKernelByKernel, 0},
	{"job-by-job", ModeJobByJob, 0},
	{"single-stream", ModeSingleStream, 0},
}

// dispatchScenario builds c on a two-SM T4 with a small overshoot budget,
// so that the mirror saturates and ready jobs queue, and loads it: three
// clients submit tinynet and fig2job requests in bursts (same-instant
// arrivals and arrivals that land inside dispatcher charges), client 2
// disconnects while the loop is charging, a client cancels a request
// while the loop pays the dispatch cost of its pick, and the dispatcher is
// stopped with requests still arriving. logf receives one line per loop action and per client
// event. The returned check reports scenario properties the transcript
// relies on.
func dispatchScenario(t *testing.T, env *sim.Env, c dispatchCase, logf func(string)) (d *Dispatcher, check func()) {
	t.Helper()
	devCfg := gpu.TeslaT4()
	devCfg.NumSMs = 2
	cfg := DefaultConfig(nil)
	cfg.Mode = c.mode
	cfg.OvershootBlocks = 8
	if c.mode == ModeGated {
		cfg.Policy = sched.NewFIFO()
		cfg.MaxBatch = c.maxBatch
		if c.maxBatch > 1 {
			cfg.BatchWindow = 40 * sim.Microsecond
		}
	}
	d = NewWithDevice(env, devCfg, cfg)
	for _, m := range []*model.Model{model.TinyNet(), model.Fig2Job()} {
		if err := d.RegisterModel(compiler.MustCompile(m, compiler.DefaultConfig(), devCfg, 2)); err != nil {
			t.Fatal(err)
		}
	}
	// Request 10 (client 0) is picked 24.4 µs in (gated, MaxBatch 1); its
	// cancel lands 1 µs into that pick's dispatch charge.
	const cancelID = 10
	pickedCancelled := false
	d.observe = func(a loopAction, arg uint64) {
		name := [...]string{"admit", "notifs", "dispatch", "issue", "idle", "wake"}[a]
		logf(fmt.Sprintf("%s %d", name, arg))
		if a == actDispatch && arg == cancelID {
			_, live := d.jobs[cancelID]
			pickedCancelled = !live
		}
	}
	conns := make([]*ClientConn, 3)
	for i := range conns {
		ci := i
		conns[i] = d.Connect()
		conns[i].OnComplete = func(id uint64) { logf(fmt.Sprintf("client%d done %d", ci, id)) }
		conns[i].OnFailed = func(id uint64, err error) { logf(fmt.Sprintf("client%d failed %d: %v", ci, id, err)) }
	}
	d.Start()

	rng := rand.New(rand.NewSource(35))
	id := uint64(0)
	submitAt := func(at sim.Time, client int) {
		id++
		rid := id
		mdl := "tinynet"
		if rng.Intn(4) == 0 {
			mdl = "fig2job"
		}
		env.At(at, func() {
			ok := conns[client].Submit(Request{ID: rid, Model: mdl, Client: client, Submit: env.Now()})
			logf(fmt.Sprintf("client%d submit %d %s ok=%v", client, rid, mdl, ok))
		})
	}
	// A burst at zero keeps the loop charging admissions and dispatches
	// for tens of microseconds.
	for k := 0; k < 12; k++ {
		submitAt(0, k%3)
	}
	// Client 2 disconnects 16.4 µs in, in the middle of that burst: the
	// loop admits the clients' requests in turn, so client 2 then has
	// admitted jobs and requests still in its ring.
	chargingAtDisconnect := false
	env.At(16*sim.Microsecond, func() {
		logf("client2 disconnect")
		conns[2].Disconnect()
		env.After(d.cfg.ShmLatency, func() { chargingAtDisconnect = d.awake })
	})
	env.At(25*sim.Microsecond, func() {
		logf(fmt.Sprintf("client0 cancel %d", cancelID))
		conns[0].Cancel(cancelID)
	})
	// Spread arrivals, some at instants an earlier arrival or a charge
	// also lands on.
	at := 20 * sim.Microsecond
	for k := 0; k < 40; k++ {
		at += sim.Time(rng.Intn(6)) * 500 * sim.Nanosecond
		if rng.Intn(3) == 0 {
			at += sim.Time(rng.Intn(300)) * sim.Microsecond
		}
		submitAt(at, rng.Intn(2))
		if k == 20 {
			// A second burst, deep enough for batch holds.
			for n := 0; n < 16; n++ {
				submitAt(at, n%2)
			}
		}
	}
	stopAt := at * 3 / 4
	env.At(stopAt, func() {
		logf("stop")
		d.Stop()
	})
	check = func() {
		if !chargingAtDisconnect {
			t.Error("the disconnect did not land during a dispatcher charge")
		}
		st := d.Stats()
		if c.mode == ModeGated && st.Failed == 0 {
			t.Error("the disconnect failed no admitted job")
		}
		if c.mode == ModeGated && c.maxBatch == 1 && !pickedCancelled {
			t.Error("the cancel did not land during the dispatch charge of its pick")
		}
		if c.maxBatch > 1 && (st.Batches == 0 || st.BatchHolds == 0) {
			t.Errorf("batching case formed %d batches and armed %d holds; want both", st.Batches, st.BatchHolds)
		}
		if st.Admitted >= id {
			t.Error("every request was admitted; Stop had no effect")
		}
	}
	return d, check
}

// executor is how dispatchTranscript drives the Env.
type executor int

const (
	execRun    executor = iota // one Run
	execSlices                 // RunUntil slices of irregular length
	execSteps                  // one Step at a time, checking the dispatcher between events
)

// dispatchTranscript runs one case under ex and returns its transcript.
func dispatchTranscript(t *testing.T, c dispatchCase, ex executor) string {
	env := sim.NewEnv()
	defer env.Close()
	var b strings.Builder
	var d *Dispatcher
	logf := func(what string) {
		st := d.stats
		fmt.Fprintf(&b, "%d %d %s | a=%d c=%d f=%d k=%d cp=%d n=%d w=%d b=%d/%d h=%d busy=%d\n",
			int64(env.Now()), env.Steps(), what, st.Admitted, st.Completed, st.Failed,
			st.KernelsSent, st.CopiesSent, st.NotifsHandled, st.LoopWakeups,
			st.Batches, st.BatchedJobs, st.BatchHolds, int64(st.BusyNs))
	}
	d, check := dispatchScenario(t, env, c, logf)
	switch ex {
	case execSteps:
		for env.Step() {
			if err := checkDispatcherState(d); err != nil {
				t.Fatalf("%s: after step %d at %d: %v", c.name, env.Steps(), int64(env.Now()), err)
			}
		}
	case execSlices:
		rng := rand.New(rand.NewSource(9))
		for env.Pending() > 0 {
			switch rng.Intn(4) {
			case 0:
				env.RunUntil(env.Now()) // an empty-length slice
			case 1:
				env.RunFor(sim.Time(1 + rng.Intn(3000)))
			default:
				env.RunFor(sim.Time(rng.Intn(40000)))
			}
		}
	default:
		env.Run()
	}
	check()
	st := d.stats
	// The clock is left out: RunUntil slices may end it past the last event.
	fmt.Fprintf(&b, "end %d | a=%d c=%d f=%d k=%d cp=%d n=%d w=%d b=%d/%d h=%d busy=%d\n",
		env.Steps(), st.Admitted, st.Completed, st.Failed,
		st.KernelsSent, st.CopiesSent, st.NotifsHandled, st.LoopWakeups,
		st.Batches, st.BatchedJobs, st.BatchHolds, int64(st.BusyNs))
	return b.String()
}

// TestDispatchTranscript: every case reproduces the recorded loop
// transcript, step counts included, under Run, under RunUntil slices, and
// one Step at a time with checkDispatcherState holding after every event.
func TestDispatchTranscript(t *testing.T) {
	var got strings.Builder
	for _, c := range dispatchCases {
		fmt.Fprintf(&got, "== %s\n%s", c.name, dispatchTranscript(t, c, execRun))
	}
	if *updateGolden {
		if err := os.WriteFile(dispatchTranscriptPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(dispatchTranscriptPath)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	var sliced, stepped strings.Builder
	for _, c := range dispatchCases {
		fmt.Fprintf(&sliced, "== %s\n%s", c.name, dispatchTranscript(t, c, execSlices))
		fmt.Fprintf(&stepped, "== %s\n%s", c.name, dispatchTranscript(t, c, execSteps))
	}
	for _, r := range []struct{ name, got string }{
		{"Run", got.String()},
		{"RunUntil slices", sliced.String()},
		{"Step", stepped.String()},
	} {
		if r.got == want {
			continue
		}
		gl, wl := strings.Split(r.got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: transcript diverges at line %d:\n got: %s\nwant: %s", r.name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: transcript length %d lines, want %d", r.name, len(gl), len(wl))
	}
}

// checkDispatcherState reports the first broken invariant of the
// dispatcher's dense bookkeeping:
//   - every ready model-path job sits in exactly one slot tree, the one at
//     its (model, cursor), and no other job sits in any;
//   - every held job is its slot's held job, and every slot's held job is
//     a held job at that slot;
//   - the kernel table's count is its number of live records, each filed
//     in the slot its id selects.
func checkDispatcherState(d *Dispatcher) error {
	seen := map[*Job]int{}
	for name, m := range d.models {
		for pos := range m.slots {
			s := &m.slots[pos]
			if s.ready != nil {
				for n := s.ready.Min(); n != nil; n = n.Next() {
					j := n.Item
					seen[j]++
					if j.Req.Model != name || j.cursor != pos || !j.inPolicy {
						return fmt.Errorf("job %d (model %s, cursor %d, ready %v) sits in slot (%s, %d)",
							j.Req.ID, j.Req.Model, j.cursor, j.inPolicy, name, pos)
					}
				}
			}
			if h := s.held; h != nil && (!h.held || h.Req.Model != name || h.cursor != pos) {
				return fmt.Errorf("slot (%s, %d) holds job %d (held %v, model %s, cursor %d)",
					name, pos, h.Req.ID, h.held, h.Req.Model, h.cursor)
			}
		}
	}
	for id, j := range d.jobs {
		if j.slots == nil || j.wl != nil {
			continue
		}
		if j.inPolicy && seen[j] != 1 {
			return fmt.Errorf("ready job %d sits in %d slot trees", id, seen[j])
		}
		if j.held && j.slot().held != j {
			return fmt.Errorf("held job %d is not its slot's held job", id)
		}
		delete(seen, j)
	}
	for j := range seen {
		return fmt.Errorf("job %d sits in a slot tree but is not a live job", j.Req.ID)
	}
	live := 0
	for i, fl := range d.inflight.slots {
		if fl == nil {
			continue
		}
		live++
		if int(fl.id)&(len(d.inflight.slots)-1) != i {
			return fmt.Errorf("kernel %d filed in slot %d of %d", fl.id, i, len(d.inflight.slots))
		}
	}
	if live != d.inflight.len() {
		return fmt.Errorf("kernel table counts %d records, holds %d", d.inflight.len(), live)
	}
	return nil
}
