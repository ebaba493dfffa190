package core

import (
	"testing"

	"paella/internal/channel"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/vram"
)

// submitN pushes n requests at t=0 and returns maps filled with terminal
// outcomes: completions and typed failures by request id.
func submitN(env *sim.Env, d *Dispatcher, n int, modelName string) (map[uint64]bool, map[uint64]error) {
	conn := d.Connect()
	completed := make(map[uint64]bool)
	failed := make(map[uint64]error)
	conn.OnComplete = func(id uint64) { completed[id] = true }
	conn.OnFailed = func(id uint64, err error) { failed[id] = err }
	env.At(0, func() {
		for i := 1; i <= n; i++ {
			conn.Submit(Request{ID: uint64(i), Model: modelName, Client: conn.ID, Submit: env.Now()})
		}
	})
	return completed, failed
}

// TestKernelTimeoutRetriesExhaust: with every notification dropped, the
// watchdog observes zero placements, re-dispatches up to the budget, then
// fails the job with ErrKernelTimeout. Nothing hangs: the run drains.
func TestKernelTimeoutRetriesExhaust(t *testing.T) {
	cfg := DefaultConfig(sched.NewPaella(10000))
	cfg.KernelTimeout = 20 * sim.Microsecond
	env, d := testSetup(t, cfg, model.TinyNet())
	d.Device().SetNotifFault(func(channel.Notification) channel.NotifVerdict {
		return channel.NotifDrop
	})
	completed, failed := submitN(env, d, 3, "tinynet")
	env.Run()

	if len(completed) != 0 {
		t.Fatalf("%d jobs completed with a fully dead notification channel", len(completed))
	}
	if len(failed) != 3 {
		t.Fatalf("failed %d of 3", len(failed))
	}
	for id, err := range failed {
		if err != ErrKernelTimeout {
			t.Fatalf("request %d failed with %v, want ErrKernelTimeout", id, err)
		}
	}
	st := d.Stats()
	if st.KernelRetries != 3*maxKernelRetries || st.KernelTimeouts == 0 {
		t.Fatalf("want %d re-dispatches (the budget, per job) and watchdog firings: %+v",
			3*maxKernelRetries, st)
	}
	// Mirror reconciliation must leave the device logically empty.
	if !d.mirror.Idle() {
		t.Fatal("occupancy mirror not idle after reconciliation")
	}
}

// TestKernelTimeoutForcedCompletion: dropping only completion records makes
// the watchdog force-complete placed kernels; every job still finishes.
func TestKernelTimeoutForcedCompletion(t *testing.T) {
	cfg := DefaultConfig(sched.NewPaella(10000))
	cfg.KernelTimeout = 20 * sim.Microsecond
	env, d := testSetup(t, cfg, model.TinyNet())
	d.Device().SetNotifFault(func(n channel.Notification) channel.NotifVerdict {
		if n.Type() == channel.Completion {
			return channel.NotifDrop
		}
		return channel.NotifKeep
	})
	completed, failed := submitN(env, d, 3, "tinynet")
	env.Run()

	if len(failed) != 0 {
		t.Fatalf("typed failures with placements intact: %v", failed)
	}
	if len(completed) != 3 {
		t.Fatalf("completed %d of 3", len(completed))
	}
	if st := d.Stats(); st.KernelTimeouts == 0 {
		t.Fatalf("watchdog never fired: %+v", st)
	}
}

// TestDuplicatedNotifsClamp: duplicating every record must not corrupt the
// occupancy mirror in tolerant mode — jobs complete, duplicates counted.
// The watchdog is armed with the 50µs grace serving gives faulty runs.
func TestDuplicatedNotifsClamp(t *testing.T) {
	cfg := DefaultConfig(sched.NewPaella(10000))
	cfg.KernelTimeout = 50 * sim.Microsecond
	env, d := testSetup(t, cfg, model.TinyNet())
	d.Device().SetNotifFault(func(channel.Notification) channel.NotifVerdict {
		return channel.NotifDup
	})
	completed, failed := submitN(env, d, 4, "tinynet")
	env.Run()

	if len(completed) != 4 || len(failed) != 0 {
		t.Fatalf("completed=%d failed=%d, want 4/0", len(completed), len(failed))
	}
	if st := d.Stats(); st.StaleNotifs == 0 {
		t.Fatalf("no duplicates counted: %+v", st)
	}
	if !d.mirror.Idle() {
		t.Fatal("mirror not idle after duplicated notifications")
	}
}

// TestLoadFailureRetriesThenSucceeds: one injected load failure retries
// with backoff and the job still completes cold.
func TestLoadFailureRetriesThenSucceeds(t *testing.T) {
	cfg := DefaultConfig(sched.NewPaella(10000))
	cfg.VRAM = &vram.Config{CapacityBytes: 1 << 30}
	m := model.TinyNet()
	m.WeightBytes = 16 << 20 // force a real cold-start load
	env, d := testSetup(t, cfg, m)
	d.FailNextLoad("tinynet")
	completed, failed := submitN(env, d, 2, "tinynet")
	env.Run()

	if len(completed) != 2 || len(failed) != 0 {
		t.Fatalf("completed=%d failed=%d, want 2/0", len(completed), len(failed))
	}
	st := d.Stats()
	if st.LoadRetries != 1 || st.LoadFailures != 0 {
		t.Fatalf("LoadRetries=%d LoadFailures=%d, want 1/0", st.LoadRetries, st.LoadFailures)
	}
}

// TestLoadFailureExhaustsRetries: persistent load failure terminates every
// waiter with ErrLoadFailed after the retry budget.
func TestLoadFailureExhaustsRetries(t *testing.T) {
	cfg := DefaultConfig(sched.NewPaella(10000))
	cfg.VRAM = &vram.Config{CapacityBytes: 1 << 30}
	m := model.TinyNet()
	m.WeightBytes = 16 << 20
	env, d := testSetup(t, cfg, m)
	for i := 0; i < 10; i++ {
		d.FailNextLoad("tinynet")
	}
	completed, failed := submitN(env, d, 3, "tinynet")
	env.Run()

	if len(completed) != 0 {
		t.Fatalf("%d jobs completed without resident weights", len(completed))
	}
	if len(failed) != 3 {
		t.Fatalf("failed %d of 3", len(failed))
	}
	for id, err := range failed {
		if err != ErrLoadFailed {
			t.Fatalf("request %d failed with %v, want ErrLoadFailed", id, err)
		}
	}
	st := d.Stats()
	if st.LoadFailures != 1 || st.LoadRetries != maxLoadRetries {
		t.Fatalf("LoadFailures=%d LoadRetries=%d, want 1/%d", st.LoadFailures, st.LoadRetries, maxLoadRetries)
	}
	d.VRAM().CheckInvariants()
}

// TestClientDisconnect: a disconnected client's live jobs terminate with a
// typed failure record, no callbacks fire after the disconnect, and
// requests surfacing from its ring afterwards are rejected.
func TestClientDisconnect(t *testing.T) {
	cfg := DefaultConfig(sched.NewPaella(10000))
	env, d := testSetup(t, cfg, model.TinyNet())
	conn := d.Connect()
	calls := 0
	conn.OnComplete = func(uint64) { calls++ }
	conn.OnFailed = func(uint64, error) { calls++ }
	env.At(0, func() {
		for i := 1; i <= 4; i++ {
			conn.Submit(Request{ID: uint64(i), Model: "tinynet", Client: conn.ID, Submit: env.Now()})
		}
	})
	// Disconnect while the burst is mid-flight.
	env.At(50*sim.Microsecond, conn.Disconnect)
	env.Run()

	if calls != 0 {
		t.Fatalf("%d callbacks fired on a dead connection", calls)
	}
	// Conservation at the collector: every submission has a terminal record.
	col := d.Collector()
	if col.Len() != 4 {
		t.Fatalf("collector holds %d records, want 4", col.Len())
	}
	for _, r := range col.Records() {
		if !r.Failed && r.Delivered == 0 {
			t.Fatalf("record %d neither delivered nor failed", r.ID)
		}
	}
	if reasons := col.FailuresByReason(); reasons[ErrClientDisconnected.Error()] == 0 {
		t.Fatalf("no ErrClientDisconnected records: %v", reasons)
	}
}

// TestSMRetirementDrainsAndRecovers: retiring a quarter of the SMs mid-run
// shrinks mirror capacity but loses nothing; restoring brings capacity
// back. All jobs complete without the watchdog.
func TestSMRetirementDrainsAndRecovers(t *testing.T) {
	cfg := DefaultConfig(sched.NewPaella(10000))
	cfg.KernelTimeout = 100 * sim.Microsecond
	env, d := testSetup(t, cfg, model.TinyNet())
	env.At(20*sim.Microsecond, func() {
		for i := 0; i < 10; i++ {
			d.Device().RetireSM(i)
		}
	})
	env.At(2*sim.Millisecond, func() {
		for i := 0; i < 10; i++ {
			d.Device().RestoreSM(i)
		}
	})
	completed, failed := submitN(env, d, 20, "tinynet")
	env.Run()

	if len(completed) != 20 || len(failed) != 0 {
		t.Fatalf("completed=%d failed=%d, want 20/0", len(completed), len(failed))
	}
	dst := d.Device().Stats()
	if dst.SMsRetired != 10 || dst.SMsRestored != 10 {
		t.Fatalf("SMsRetired=%d SMsRestored=%d, want 10/10", dst.SMsRetired, dst.SMsRestored)
	}
	if d.Device().OnlineSMs() != d.Device().Config().NumSMs {
		t.Fatalf("OnlineSMs=%d after restore", d.Device().OnlineSMs())
	}
}

// TestVRAMPressureEvictsAndReleases: injected pressure squeezes the budget
// (forcing evictions/parked loads); releasing it lets everything complete.
func TestVRAMPressureEvictsAndReleases(t *testing.T) {
	cfg := DefaultConfig(sched.NewPaella(10000))
	// Budget fits the model, but not the model plus injected pressure.
	cfg.VRAM = &vram.Config{CapacityBytes: 8 << 20}
	m := model.TinyNet()
	m.WeightBytes = 4 << 20
	env, d := testSetup(t, cfg, m)
	env.At(0, func() {
		if got := d.InjectVRAMPressure(6 << 20); got <= 0 {
			t.Error("pressure injection took nothing")
		}
	})
	env.At(5*sim.Millisecond, d.ReleaseVRAMPressure)
	completed, failed := submitN(env, d, 3, "tinynet")
	env.Run()

	if len(completed) != 3 || len(failed) != 0 {
		t.Fatalf("completed=%d failed=%d, want 3/0", len(completed), len(failed))
	}
	d.VRAM().CheckInvariants()
	// Only tinynet's two 2 MiB weight blocks may stay allocated once the
	// pressure is released.
	if used := d.VRAM().UsedBlocks(); used > 2 {
		t.Fatalf("%d blocks still allocated after the pressure release", used)
	}
}

// TestPCIeBrownoutSlowsCopies: halving the analytic PCIe bandwidth must
// stretch a run's makespan; restoring the factor restores it.
func TestPCIeBrownoutSlowsCopies(t *testing.T) {
	run := func(factor float64) sim.Time {
		cfg := DefaultConfig(sched.NewPaella(10000))
		env, d := testSetup(t, cfg, model.TinyNet())
		if factor != 1 {
			d.SetPCIeFactor(factor)
		}
		completed, _ := submitN(env, d, 5, "tinynet")
		env.Run()
		if len(completed) != 5 {
			t.Fatalf("completed %d of 5 at factor %v", len(completed), factor)
		}
		return env.Now()
	}
	healthy, browned := run(1), run(0.1)
	if browned <= healthy {
		t.Fatalf("brownout did not slow the run: healthy=%v browned=%v", healthy, browned)
	}
}

// TestBatchedKernelTimeout drives both branches of the watchdog's batched
// recovery path, batchTimeout, one event at a time with the dispatcher's
// slot and kernel-table invariants checked after every event. With every
// notification dropped no batch ever places, so each member goes back
// through the policy on its own retry budget until it fails; with only
// completion records dropped every batch placed, so every member is
// force-completed. Either way each request terminates exactly once.
func TestBatchedKernelTimeout(t *testing.T) {
	const n = 24
	for _, tc := range []struct {
		name      string
		drop      func(channel.Notification) bool
		wantFails bool
	}{
		{"never-placed", func(channel.Notification) bool { return true }, true},
		{"placed", func(nt channel.Notification) bool { return nt.Type() == channel.Completion }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(sched.NewPaella(10000))
			cfg.KernelTimeout = 20 * sim.Microsecond
			cfg.MaxBatch, cfg.BatchWindow = 8, 50*sim.Microsecond
			env, d := testSetup(t, cfg, model.TinyNet())
			d.Device().SetNotifFault(func(nt channel.Notification) channel.NotifVerdict {
				if tc.drop(nt) {
					return channel.NotifDrop
				}
				return channel.NotifKeep
			})
			conn := d.Connect()
			ends := make(map[uint64]int)
			var completed, failed int
			conn.OnComplete = func(id uint64) { ends[id]++; completed++ }
			conn.OnFailed = func(id uint64, err error) {
				ends[id]++
				failed++
				if err != ErrKernelTimeout {
					t.Errorf("request %d failed with %v, want ErrKernelTimeout", id, err)
				}
			}
			env.At(0, func() {
				for i := 1; i <= n; i++ {
					conn.Submit(Request{ID: uint64(i), Model: "tinynet", Client: conn.ID, Submit: env.Now()})
				}
			})
			for env.Step() {
				if err := checkDispatcherState(d); err != nil {
					t.Fatalf("after step %d at %d: %v", env.Steps(), int64(env.Now()), err)
				}
			}
			for id := uint64(1); id <= n; id++ {
				if ends[id] != 1 {
					t.Errorf("request %d terminated %d times, want once", id, ends[id])
				}
			}
			st := d.Stats()
			if st.Batches == 0 || st.KernelTimeouts != st.KernelsSent {
				t.Fatalf("%d batches, %d watchdog firings for %d launches; want batches and every launch timed out: %+v",
					st.Batches, st.KernelTimeouts, st.KernelsSent, st)
			}
			if tc.wantFails {
				if failed != n || st.KernelRetries != n*maxKernelRetries {
					t.Fatalf("failed %d of %d after %d re-dispatches, want all after %d (each member's budget)",
						failed, n, st.KernelRetries, n*maxKernelRetries)
				}
			} else if completed != n || st.KernelRetries != 0 {
				t.Fatalf("completed %d of %d with %d re-dispatches, want all with none", completed, n, st.KernelRetries)
			}
			if !d.mirror.Idle() || d.inflight.len() != 0 {
				t.Fatal("occupancy mirror or kernel table not empty after the run")
			}
		})
	}
}
