package gpu

import (
	"math/rand"
	"testing"

	"paella/internal/channel"
	"paella/internal/sim"
	"paella/internal/trace"
)

// testDevice returns a small device with no launch overhead so timing
// assertions are exact.
func testDevice(env *sim.Env, sms, queues int) *Device {
	cfg := Config{
		Name:   "test",
		NumSMs: sms,
		SM: SMResources{
			MaxBlocks:    4,
			MaxThreads:   1024,
			MaxRegisters: 65536,
			MaxSharedMem: 48 << 10,
		},
		NumHWQueues: queues,
	}
	return NewDevice(env, cfg, nil)
}

func simpleKernel(name string, blocks int, dur sim.Time) *KernelSpec {
	return &KernelSpec{
		Name:            name,
		Blocks:          blocks,
		ThreadsPerBlock: 256,
		RegsPerThread:   16,
		BlockDuration:   dur,
	}
}

func TestSingleKernelLifecycle(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env, 1, 1)
	var doneAt sim.Time = -1
	l := &Launch{Spec: simpleKernel("k", 2, 100*sim.Microsecond), OnComplete: func() { doneAt = env.Now() }}
	d.Submit(0, l)
	env.Run()
	if doneAt < 0 {
		t.Fatal("OnComplete not called")
	}
	if l.state != LaunchDone {
		t.Fatalf("state = %v", l.state)
	}
	// Two blocks of 256 threads fit the single SM simultaneously, so the
	// kernel completes after exactly one block duration.
	if doneAt != 100*sim.Microsecond {
		t.Fatalf("completed at %v", doneAt)
	}
	st := d.Stats()
	if st.BlocksPlaced != 2 || st.BlocksCompleted != 2 || st.KernelsCompleted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFreeThreadsCountsOnlineSMs: the freeThreads tally counts the idle thread
// slots of online SMs only, with blocks resident on the SM being retired,
// after they drain, and once it is restored.
func TestFreeThreadsCountsOnlineSMs(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env, 2, 1)
	onlineFree := func() int {
		free := 0
		for i := range d.sms {
			if !d.sms[i].offline {
				free += d.cfg.SM.MaxThreads - d.sms[i].threads
			}
		}
		return free
	}
	check := func(when string, want int) {
		t.Helper()
		if got := d.freeThreads; got != want || got != onlineFree() {
			t.Fatalf("%s: freeThreads = %d, want %d (online SMs' idle slots: %d)", when, got, want, onlineFree())
		}
	}
	d.Submit(0, &Launch{Spec: simpleKernel("k", 8, 100*sim.Microsecond)})
	env.RunUntil(10 * sim.Microsecond)
	check("8 blocks resident", 0)
	d.RetireSM(0)
	check("SM 0 retired with its blocks resident", 0)
	env.RunUntil(150 * sim.Microsecond)
	check("SM 0's blocks drained", 1024)
	d.RestoreSM(0)
	check("SM 0 restored", 2048)
}

func TestOccupancySerializesWaves(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env, 1, 1) // 1 SM × 1024 threads → 4 blocks of 256 max
	var doneAt sim.Time
	d.Submit(0, &Launch{Spec: simpleKernel("k", 8, 50*sim.Microsecond), OnComplete: func() { doneAt = env.Now() }})
	env.Run()
	// 8 blocks at 4-per-SM capacity: two waves of 50µs.
	if doneAt != 100*sim.Microsecond {
		t.Fatalf("completed at %v, want 100µs", doneAt)
	}
}

func TestMaxResidentPerSM(t *testing.T) {
	r := SMResources{MaxBlocks: 16, MaxThreads: 1024, MaxRegisters: 65536, MaxSharedMem: 64 << 10}
	cases := []struct {
		k    KernelSpec
		want int
	}{
		// Thread-limited: 1024/128 = 8.
		{KernelSpec{Blocks: 1, ThreadsPerBlock: 128, RegsPerThread: 9}, 8},
		// Register-limited: 65536/(256*64) = 4.
		{KernelSpec{Blocks: 1, ThreadsPerBlock: 256, RegsPerThread: 64}, 4},
		// Shared-memory-limited: 64K/(32K) = 2.
		{KernelSpec{Blocks: 1, ThreadsPerBlock: 32, RegsPerThread: 1, SharedMemPerBlock: 32 << 10}, 2},
		// Block-slot-limited: 16.
		{KernelSpec{Blocks: 1, ThreadsPerBlock: 32, RegsPerThread: 1}, 16},
		// Does not fit at all.
		{KernelSpec{Blocks: 1, ThreadsPerBlock: 2048, RegsPerThread: 1}, 0},
	}
	for i, c := range cases {
		if got := c.k.MaxResidentPerSM(r); got != c.want {
			t.Errorf("case %d: MaxResidentPerSM = %d, want %d", i, got, c.want)
		}
	}
}

func TestFIFOWithinQueue(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env, 1, 1)
	var order []string
	mk := func(name string) *Launch {
		return &Launch{
			Spec:       simpleKernel(name, 4, 10*sim.Microsecond), // fills the SM
			OnComplete: func() { order = append(order, name) },
		}
	}
	d.Submit(0, mk("a"))
	d.Submit(0, mk("b"))
	d.Submit(0, mk("c"))
	env.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("completion order = %v", order)
	}
}

// TestHoLBlocking reproduces the core §2.1 pathology: a not-ready head
// launch stalls its queue even though an independent, ready kernel is
// queued right behind it.
func TestHoLBlocking(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env, 2, 1) // one hardware queue
	ready := false
	var blockedDone, freeDone sim.Time
	blocked := &Launch{
		Spec:       simpleKernel("blocked", 1, 10*sim.Microsecond),
		Ready:      func() bool { return ready },
		OnComplete: func() { blockedDone = env.Now() },
	}
	free := &Launch{
		Spec:       simpleKernel("free", 1, 10*sim.Microsecond),
		OnComplete: func() { freeDone = env.Now() },
	}
	d.Submit(0, blocked)
	d.Submit(0, free)
	// Release the head's dependency at t=100µs.
	env.After(100*sim.Microsecond, func() { ready = true; d.Kick() })
	env.Run()
	if blockedDone != 110*sim.Microsecond {
		t.Fatalf("blocked kernel done at %v, want 110µs", blockedDone)
	}
	// HoL blocking: "free" had no dependencies and idle SMs existed, but it
	// had to wait for the head to clear.
	if freeDone < blockedDone {
		t.Fatalf("free kernel overtook queue head: free=%v blocked=%v", freeDone, blockedDone)
	}
	if d.Stats().HoLBlockedKernels == 0 {
		t.Fatal("HoL blocking not counted")
	}
}

// TestMultiQueueIndependence shows the Kepler+ fix: with the same two
// kernels in separate hardware queues, the independent kernel proceeds
// immediately.
func TestMultiQueueIndependence(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env, 2, 2)
	ready := false
	var freeDone sim.Time
	blocked := &Launch{
		Spec:  simpleKernel("blocked", 1, 10*sim.Microsecond),
		Ready: func() bool { return ready },
	}
	free := &Launch{
		Spec:       simpleKernel("free", 1, 10*sim.Microsecond),
		OnComplete: func() { freeDone = env.Now() },
	}
	d.Submit(0, blocked)
	d.Submit(1, free)
	env.After(100*sim.Microsecond, func() { ready = true; d.Kick() })
	env.Run()
	if freeDone != 10*sim.Microsecond {
		t.Fatalf("free kernel done at %v, want 10µs", freeDone)
	}
}

func TestFermiCollapsesQueues(t *testing.T) {
	cfg := TwoSM(1)
	if cfg.EffectiveQueues() != 1 {
		t.Fatalf("Fermi EffectiveQueues = %d, want 1", cfg.EffectiveQueues())
	}
	env := sim.NewEnv()
	d := NewDevice(env, cfg, nil)
	if d.NumQueues() != 1 {
		t.Fatalf("NumQueues = %d, want 1", d.NumQueues())
	}
}

func TestOnAllPlacedFiresBeforeComplete(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env, 1, 1)
	var placedAt, doneAt sim.Time = -1, -1
	l := &Launch{
		Spec:        simpleKernel("k", 8, 20*sim.Microsecond), // two waves
		onAllPlaced: func() { placedAt = env.Now() },
		OnComplete:  func() { doneAt = env.Now() },
	}
	d.Submit(0, l)
	env.Run()
	// Second wave places when the first completes at 20µs.
	if placedAt != 20*sim.Microsecond {
		t.Fatalf("onAllPlaced at %v, want 20µs", placedAt)
	}
	if doneAt != 40*sim.Microsecond {
		t.Fatalf("OnComplete at %v, want 40µs", doneAt)
	}
}

func TestNotificationsDeliveredWithDelayAndAggregation(t *testing.T) {
	env := sim.NewEnv()
	nq := channel.NewNotifQueue(1 << 12)
	cfg := Config{
		Name: "notif-test", NumSMs: 1,
		SM:          SMResources{MaxBlocks: 64, MaxThreads: 65536, MaxRegisters: 1 << 24, MaxSharedMem: 1 << 20},
		NumHWQueues: 1,
		NotifDelay:  2 * sim.Microsecond,
	}
	d := NewDevice(env, cfg, nq)
	wakeups := 0
	d.OnNotifPosted(func() { wakeups++ })
	l := &Launch{
		Spec:       &KernelSpec{Name: "k", Blocks: 40, ThreadsPerBlock: 32, RegsPerThread: 1, BlockDuration: 10 * sim.Microsecond},
		KernelID:   77,
		NotifGroup: 16,
	}
	d.Submit(0, l)

	buf := make([]channel.Notification, 64)
	// Just before the notification delay elapses nothing is visible.
	env.RunUntil(2*sim.Microsecond - 1)
	if n := nq.Poll(buf); n != 0 {
		t.Fatalf("notifications visible before delay: %d", n)
	}
	env.RunUntil(2 * sim.Microsecond)
	n := nq.Poll(buf)
	// 40 blocks aggregated ×16 → 3 placement records (16+16+8).
	if n != 3 {
		t.Fatalf("placement records = %d, want 3", n)
	}
	total := 0
	for i := 0; i < n; i++ {
		if buf[i].Type() != channel.Placement || buf[i].KernelID() != 77 {
			t.Fatalf("bad record %v", buf[i])
		}
		total += int(buf[i].GroupCount())
	}
	if total != 40 {
		t.Fatalf("placement group sum = %d, want 40", total)
	}
	if wakeups == 0 {
		t.Fatal("OnNotifPosted never fired")
	}
	env.Run()
	n = nq.Poll(buf)
	total = 0
	for i := 0; i < n; i++ {
		if buf[i].Type() != channel.Completion {
			t.Fatalf("expected completion, got %v", buf[i])
		}
		total += int(buf[i].GroupCount())
	}
	if total != 40 {
		t.Fatalf("completion group sum = %d, want 40", total)
	}
}

func TestNoAggregationOneRecordPerBlock(t *testing.T) {
	env := sim.NewEnv()
	nq := channel.NewNotifQueue(1 << 12)
	d := NewDevice(env, testDevice(env, 1, 1).cfg, nq)
	l := &Launch{Spec: simpleKernel("k", 4, sim.Microsecond), NotifGroup: 1, KernelID: 1} // no aggregation
	d.Submit(0, l)
	env.Run()
	buf := make([]channel.Notification, 64)
	n := nq.Poll(buf)
	if n != 8 { // 4 placements + 4 completions
		t.Fatalf("records = %d, want 8", n)
	}
}

func TestLaunchOverheadDelaysEnqueue(t *testing.T) {
	env := sim.NewEnv()
	cfg := testDevice(env, 1, 1).cfg
	cfg.LaunchOverhead = 5 * sim.Microsecond
	d := NewDevice(env, cfg, nil)
	var doneAt sim.Time
	d.Submit(0, &Launch{Spec: simpleKernel("k", 1, 10*sim.Microsecond), OnComplete: func() { doneAt = env.Now() }})
	env.Run()
	if doneAt != 15*sim.Microsecond {
		t.Fatalf("completed at %v, want 15µs", doneAt)
	}
}

func TestUtilization(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env, 1, 1) // 1024 threads
	// One block of 256 threads for 100µs → 25% busy over [0,100µs].
	l := &Launch{Spec: simpleKernel("k", 1, 100*sim.Microsecond)}
	d.Submit(0, l)
	env.Run()
	if u := d.Utilization(); u < 0.249 || u > 0.251 {
		t.Fatalf("Utilization = %f, want 0.25", u)
	}
}

func TestResubmitPanics(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env, 1, 1)
	l := &Launch{Spec: simpleKernel("k", 1, sim.Microsecond)}
	d.Submit(0, l)
	env.Run()
	defer func() {
		if recover() == nil {
			t.Error("resubmit did not panic")
		}
	}()
	d.Submit(0, l)
}

func TestImpossibleKernelPanics(t *testing.T) {
	env := sim.NewEnv()
	d := testDevice(env, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("oversize kernel did not panic")
		}
	}()
	d.Submit(0, &Launch{Spec: &KernelSpec{Name: "huge", Blocks: 1, ThreadsPerBlock: 4096, BlockDuration: 1}})
}

func TestKernelSpecValidate(t *testing.T) {
	bad := []KernelSpec{
		{Name: "zero-blocks", Blocks: 0, ThreadsPerBlock: 1},
		{Name: "zero-threads", Blocks: 1, ThreadsPerBlock: 0},
		{Name: "neg-regs", Blocks: 1, ThreadsPerBlock: 1, RegsPerThread: -1},
		{Name: "neg-dur", Blocks: 1, ThreadsPerBlock: 1, BlockDuration: -1},
	}
	for _, k := range bad {
		if k.Validate() == nil {
			t.Errorf("kernel %q validated", k.Name)
		}
	}
	good := KernelSpec{Name: "ok", Blocks: 2, ThreadsPerBlock: 128, RegsPerThread: 8, BlockDuration: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("good kernel rejected: %v", err)
	}
}

// TestTimelineRender checks the SM timeline and makespan read back from
// the recorder: two SM-wide blocks of job A, then an untagged block
// queued behind them.
func TestTimelineRender(t *testing.T) {
	env := sim.NewEnv()
	env.SetRecorder(trace.New())
	d := testDevice(env, 2, 2)
	wide := func(name string, blocks int, dur sim.Time) *KernelSpec {
		return &KernelSpec{Name: name, Blocks: blocks, ThreadsPerBlock: 1024, RegsPerThread: 16, BlockDuration: dur}
	}
	d.Submit(0, &Launch{Spec: wide("a", 2, 10*sim.Microsecond), JobTag: "A"})
	d.Submit(1, &Launch{Spec: wide("b", 1, 5*sim.Microsecond)})
	env.Run()
	if got := d.Makespan(); got != 15*sim.Microsecond {
		t.Fatalf("Makespan = %v, want 15µs", got)
	}
	want := "SM0  |AA.|\nSM1  |AA#|\n"
	if got := d.Timeline(5 * sim.Microsecond); got != want {
		t.Fatalf("Timeline =\n%swant\n%s", got, want)
	}
	if untraced := testDevice(sim.NewEnv(), 2, 2); untraced.Timeline(sim.Microsecond) != "" || untraced.Makespan() != 0 {
		t.Fatal("a device without a recorder rendered a timeline")
	}
}

// TestRandomLoadInvariants churns the device with random kernels and checks
// resource invariants plus conservation (every submitted block is placed
// and completed exactly once).
func TestRandomLoadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		env := sim.NewEnv()
		completed := 0
		d, launches, totalBlocks := randomLoad(rng, env, func() { completed++ })
		for env.Step() {
			d.CheckInvariants()
		}
		if n := len(launches); completed != n {
			t.Fatalf("trial %d: %d of %d kernels completed", trial, completed, n)
		}
		st := d.Stats()
		if st.BlocksPlaced != uint64(totalBlocks) || st.BlocksCompleted != uint64(totalBlocks) {
			t.Fatalf("trial %d: block conservation violated: %+v (want %d)", trial, st, totalBlocks)
		}
		if d.resident != 0 || d.freeThreads != d.cfg.NumSMs*d.cfg.SM.MaxThreads {
			t.Fatalf("trial %d: resources not fully returned", trial)
		}
	}
}

// randomLoad submits 1–30 random kernels at random times to a random small
// device on env. Launch i carries kernel id i+1 and a one-letter job tag.
// It returns the device, the launches and their total block count.
func randomLoad(rng *rand.Rand, env *sim.Env, onComplete func()) (*Device, []*Launch, int) {
	d := testDevice(env, 1+rng.Intn(4), 1+rng.Intn(4))
	launches := make([]*Launch, 1+rng.Intn(30))
	totalBlocks := 0
	for i := range launches {
		blocks := 1 + rng.Intn(10)
		totalBlocks += blocks
		l := &Launch{
			Spec: &KernelSpec{
				Name:            "r",
				Blocks:          blocks,
				ThreadsPerBlock: 32 * (1 + rng.Intn(8)),
				RegsPerThread:   1 + rng.Intn(32),
				BlockDuration:   sim.Time(1+rng.Intn(100)) * sim.Microsecond,
			},
			JobTag:     string(rune('A' + i%26)),
			KernelID:   uint32(i + 1),
			OnComplete: onComplete,
		}
		launches[i] = l
		q := rng.Intn(d.NumQueues())
		at := sim.Time(rng.Intn(500)) * sim.Microsecond
		env.At(at, func() { d.Submit(q, l) })
	}
	return d, launches, totalBlocks
}

// TestRandomLoadSMSpans runs TestRandomLoadInvariants' random load with a
// recorder attached and checks the SM tracks against the placements: each
// placement emits exactly one kernel slice per SM it used, carrying the
// launch's job tag, kernel id and block count, and the slices' blocks sum
// to Stats().BlocksPlaced. One event runs at most one scheduling pass,
// which places each launch at most once, so within one step an SM gains
// at most one slice per launch.
func TestRandomLoadSMSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		env := sim.NewEnv()
		rec := trace.New()
		env.SetRecorder(rec)
		d, launches, totalBlocks := randomLoad(rng, env, nil)
		seen := make([]int, len(d.smTracks))
		var spanBlocks uint64
		for env.Step() {
			for sm, track := range d.smTracks {
				spans := rec.TrackSpans(track)
				placed := make(map[int64]bool)
				for _, s := range spans[seen[sm]:] {
					id, _ := s.Arg("kernel_id").(int64)
					blocks, _ := s.Arg("blocks").(int64)
					if id < 1 || int(id) > len(launches) || placed[id] {
						t.Fatalf("trial %d: SM %d slice %+v: unknown or repeated kernel id", trial, sm, s)
					}
					placed[id] = true
					l := launches[id-1]
					if s.Arg("job") != l.JobTag || s.Name != l.Spec.Name || s.Cat != "kernel" || blocks < 1 ||
						s.Start != env.Now() || s.End != s.Start+l.Spec.BlockDuration {
						t.Fatalf("trial %d: SM %d slice %+v does not match launch %d at %v", trial, sm, s, id, env.Now())
					}
					spanBlocks += uint64(blocks)
				}
				seen[sm] = len(spans)
			}
			if placed := d.Stats().BlocksPlaced; spanBlocks != placed {
				t.Fatalf("trial %d at %v: slices hold %d blocks, device placed %d", trial, env.Now(), spanBlocks, placed)
			}
		}
		if spanBlocks != uint64(totalBlocks) {
			t.Fatalf("trial %d: slices hold %d blocks, want %d", trial, spanBlocks, totalBlocks)
		}
	}
}

func TestPresetConfigs(t *testing.T) {
	for _, c := range []Config{GTX1660Super(), TeslaT4(), TeslaP100()} {
		if c.NumSMs <= 0 || c.EffectiveQueues() <= 0 || c.SM.MaxThreads <= 0 {
			t.Errorf("preset %q malformed: %+v", c.Name, c)
		}
	}
	// The paper's Figure 2 concurrency bound: 128-thread, 9-register blocks
	// on the GTX 1660 SUPER allow 8 per SM × 22 SMs = 176 concurrent.
	k := KernelSpec{Name: "fig2", Blocks: 8, ThreadsPerBlock: 128, RegsPerThread: 9}
	if got := k.MaxResident(GTX1660Super()); got != 176 {
		t.Errorf("Fig2 concurrency = %d, want 176", got)
	}
}
