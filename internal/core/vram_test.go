package core

import (
	"testing"

	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/vram"
)

// weighted returns a TinyNet clone with a name and a weight footprint.
func weighted(name string, weightBytes int) *model.Model {
	m := model.TinyNet()
	m.Name = name
	m.WeightBytes = weightBytes
	return m
}

func vramCfg(capacity int64) Config {
	cfg := DefaultConfig(sched.NewPaella(100))
	cfg.VRAM = &vram.Config{CapacityBytes: capacity, BlockBytes: 1 << 20}
	return cfg
}

// TestVRAMColdStartThenWarm: the first request for a model pays the weight
// load (visible in its record and its JCT); a later request hits warm.
func TestVRAMColdStartThenWarm(t *testing.T) {
	const weights = 24 << 20
	env, d := testSetup(t, vramCfg(64<<20), weighted("m", weights))
	conn := d.Connect()
	submit(env, conn, 1, "m", 0)
	submit(env, conn, 2, "m", 20*sim.Millisecond)
	env.Run()

	recs := d.Collector().Records()
	if len(recs) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(recs))
	}
	cold, warm := recs[0], recs[1]
	if cold.ID != 1 {
		cold, warm = warm, cold
	}
	if !cold.ColdStart || cold.LoadNs <= 0 {
		t.Fatalf("first request not a cold start: %+v", cold)
	}
	if warm.ColdStart || warm.LoadNs != 0 {
		t.Fatalf("second request not warm: %+v", warm)
	}
	// The load is a 24 MiB H2D transfer; the cold JCT must carry it.
	loadWire := d.ColdLoadDuration(weights)
	if cold.LoadNs < loadWire {
		t.Fatalf("cold LoadNs %v < wire time %v", cold.LoadNs, loadWire)
	}
	if cold.JCT() < warm.JCT()+loadWire/2 {
		t.Fatalf("cold JCT %v not visibly above warm JCT %v", cold.JCT(), warm.JCT())
	}
	st := d.VRAM().Stats()
	if st.Loads != 1 || st.ColdPins != 1 || st.WarmHits != 1 {
		t.Fatalf("vram stats = %+v", st)
	}
	if c := d.Collector().ColdStarts(); c != 1 {
		t.Fatalf("collector cold starts = %d, want 1", c)
	}
}

// TestVRAMEvictionAndReload: with room for only one model, alternating
// requests evict and re-page weights each switch.
func TestVRAMEvictionAndReload(t *testing.T) {
	env, d := testSetup(t, vramCfg(32<<20),
		weighted("a", 24<<20), weighted("b", 24<<20))
	conn := d.Connect()
	submit(env, conn, 1, "a", 0)
	submit(env, conn, 2, "b", 20*sim.Millisecond)
	submit(env, conn, 3, "a", 40*sim.Millisecond)
	env.Run()

	if n := d.Collector().Len(); n != 3 {
		t.Fatalf("completed %d jobs, want 3", n)
	}
	st := d.VRAM().Stats()
	if st.Loads != 3 {
		t.Fatalf("loads = %d, want 3 (a, b, a again)", st.Loads)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	for _, r := range d.Collector().Records() {
		if !r.ColdStart {
			t.Fatalf("request %d should have cold-started: %+v", r.ID, r)
		}
	}
	d.VRAM().CheckInvariants()
}

// TestVRAMPinnedLoadWaits: when the running model pins all of VRAM, a
// competing model's load parks until the pin drops — and then completes.
// This is the no-deadlock property of the pending-load retry path.
func TestVRAMPinnedLoadWaits(t *testing.T) {
	env, d := testSetup(t, vramCfg(32<<20),
		weighted("a", 24<<20), weighted("b", 24<<20))
	conn := d.Connect()
	dA := submit(env, conn, 1, "a", 0)
	dB := submit(env, conn, 2, "b", 0)
	env.Run()

	if *dA < 0 || *dB < 0 {
		t.Fatalf("jobs did not both complete (a=%v b=%v): pending load stuck", *dA, *dB)
	}
	// b could only load after a finished and was evicted.
	if *dB <= *dA {
		t.Fatalf("b delivered at %v, before a at %v", *dB, *dA)
	}
	st := d.VRAM().Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	d.VRAM().CheckInvariants()
}

// TestVRAMZeroWeightModelsUnaffected: models without a weight footprint
// never cold-start even under a tiny VRAM budget.
func TestVRAMZeroWeightModelsUnaffected(t *testing.T) {
	env, d := testSetup(t, vramCfg(1<<20), model.TinyNet())
	conn := d.Connect()
	submit(env, conn, 1, "tinynet", 0)
	env.Run()
	recs := d.Collector().Records()
	if len(recs) != 1 || recs[0].ColdStart || recs[0].LoadNs != 0 {
		t.Fatalf("records = %+v", recs)
	}
}

// TestVRAMWarmTiebreakUpgrade: a job admitted cold is upgraded to warm in
// the policy order once its weights land (entry re-added with Warm set).
func TestVRAMWarmTiebreakUpgrade(t *testing.T) {
	env, d := testSetup(t, vramCfg(64<<20), weighted("m", 24<<20))
	conn := d.Connect()
	submit(env, conn, 1, "m", 0)
	env.Run()
	recs := d.Collector().Records()
	if len(recs) != 1 || !recs[0].ColdStart {
		t.Fatalf("records = %+v", recs)
	}
	// Kernel dispatch cannot precede residency: FirstDispatch is at or
	// after the admission-to-resident wait.
	if recs[0].FirstDispatch < recs[0].Admit+recs[0].LoadNs {
		t.Fatalf("kernel dispatched at %v before weights resident at %v",
			recs[0].FirstDispatch, recs[0].Admit+recs[0].LoadNs)
	}
}
