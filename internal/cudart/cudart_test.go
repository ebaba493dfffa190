package cudart

import (
	"testing"

	"paella/internal/gpu"
	"paella/internal/sim"
)

// zeroCost returns a config with all host costs zeroed so ordering tests
// have exact timing.
func zeroCost() Config {
	return Config{PCIeBytesPerNs: 10}
}

func newCtx(env *sim.Env, sms, queues int, cfg Config) (*Context, *gpu.Device) {
	dcfg := gpu.Config{
		Name: "t", NumSMs: sms,
		SM:          gpu.SMResources{MaxBlocks: 4, MaxThreads: 1024, MaxRegisters: 65536, MaxSharedMem: 48 << 10},
		NumHWQueues: queues,
	}
	dev := gpu.NewDevice(env, dcfg, nil)
	return NewContext(env, dev, cfg), dev
}

func kern(name string, blocks int, dur sim.Time) *gpu.KernelSpec {
	return &gpu.KernelSpec{Name: name, Blocks: blocks, ThreadsPerBlock: 256, RegsPerThread: 8, BlockDuration: dur}
}

func TestStreamSerializesKernels(t *testing.T) {
	env := sim.NewEnv()
	ctx, _ := newCtx(env, 4, 4, zeroCost())
	s := ctx.StreamCreate()
	var doneAt sim.Time
	env.Spawn("job", func(p *sim.Proc) {
		// Three kernels on one stream must run back to back even though the
		// device has room for all of them at once.
		s.LaunchKernel(p, kern("a", 1, 10*sim.Microsecond), LaunchOpts{})
		s.LaunchKernel(p, kern("b", 1, 10*sim.Microsecond), LaunchOpts{})
		s.LaunchKernel(p, kern("c", 1, 10*sim.Microsecond), LaunchOpts{})
		s.Synchronize(p)
		doneAt = env.Now()
	})
	env.Run()
	if doneAt != 30*sim.Microsecond {
		t.Fatalf("stream drained at %v, want 30µs", doneAt)
	}
}

func TestIndependentStreamsOverlap(t *testing.T) {
	env := sim.NewEnv()
	ctx, _ := newCtx(env, 4, 4, zeroCost())
	s1, s2 := ctx.StreamCreate(), ctx.StreamCreate()
	var doneAt sim.Time
	env.Spawn("job", func(p *sim.Proc) {
		s1.LaunchKernel(p, kern("a", 1, 10*sim.Microsecond), LaunchOpts{})
		s2.LaunchKernel(p, kern("b", 1, 10*sim.Microsecond), LaunchOpts{})
		ctx.DeviceSynchronize(p)
		doneAt = env.Now()
	})
	env.Run()
	if doneAt != 10*sim.Microsecond {
		t.Fatalf("device drained at %v, want 10µs (overlap)", doneAt)
	}
}

func TestDefaultStreamSerializesAll(t *testing.T) {
	env := sim.NewEnv()
	ctx, _ := newCtx(env, 4, 4, zeroCost())
	s1 := ctx.StreamCreate()
	def := ctx.DefaultStream()
	var doneAt sim.Time
	env.Spawn("job", func(p *sim.Proc) {
		s1.LaunchKernel(p, kern("a", 1, 10*sim.Microsecond), LaunchOpts{})
		// Legacy semantics: this default-stream kernel must wait for "a",
		// and "b" issued afterwards on s1 must wait for it.
		def.LaunchKernel(p, kern("d", 1, 10*sim.Microsecond), LaunchOpts{})
		s1.LaunchKernel(p, kern("b", 1, 10*sim.Microsecond), LaunchOpts{})
		ctx.DeviceSynchronize(p)
		doneAt = env.Now()
	})
	env.Run()
	if doneAt != 30*sim.Microsecond {
		t.Fatalf("device drained at %v, want 30µs (full serialization)", doneAt)
	}
}

func TestMemcpyOrdersWithKernels(t *testing.T) {
	env := sim.NewEnv()
	cfg := zeroCost()
	cfg.MemcpyLatency = 5 * sim.Microsecond
	cfg.PCIeBytesPerNs = 10 // 10 bytes/ns
	ctx, _ := newCtx(env, 4, 4, cfg)
	s := ctx.StreamCreate()
	var doneAt sim.Time
	env.Spawn("job", func(p *sim.Proc) {
		s.MemcpyAsync(p, HostToDevice, 1000) // 5µs + 100ns
		s.LaunchKernel(p, kern("k", 1, 10*sim.Microsecond), LaunchOpts{})
		s.MemcpyAsync(p, DeviceToHost, 1000)
		s.Synchronize(p)
		doneAt = env.Now()
	})
	env.Run()
	want := 2*(5*sim.Microsecond+100) + 10*sim.Microsecond
	if doneAt != want {
		t.Fatalf("drained at %v, want %v", doneAt, want)
	}
}

func TestEventRecordFiresInOrder(t *testing.T) {
	env := sim.NewEnv()
	ctx, _ := newCtx(env, 4, 4, zeroCost())
	s := ctx.StreamCreate()
	var ev *Event
	var sawAt sim.Time = -1
	env.Spawn("job", func(p *sim.Proc) {
		s.LaunchKernel(p, kern("a", 1, 10*sim.Microsecond), LaunchOpts{})
		ev = s.EventRecord()
		s.LaunchKernel(p, kern("b", 1, 10*sim.Microsecond), LaunchOpts{})
	})
	env.Spawn("watch", func(p *sim.Proc) {
		p.Sleep(1) // let the job issue
		p.Wait(evComp(ev))
		sawAt = env.Now()
	})
	env.Run()
	if sawAt != 10*sim.Microsecond {
		t.Fatalf("event fired at %v, want 10µs", sawAt)
	}
}

// evComp gives tests access to the event's completion.
func evComp(e *Event) *sim.Completion { return e.comp }

func TestAddCallbackSerializedCost(t *testing.T) {
	env := sim.NewEnv()
	cfg := zeroCost()
	cfg.CallbackCost = 35 * sim.Microsecond
	ctx, _ := newCtx(env, 4, 4, cfg)
	s1, s2 := ctx.StreamCreate(), ctx.StreamCreate()
	var t1, t2 sim.Time
	env.Spawn("job", func(p *sim.Proc) {
		s1.LaunchKernel(p, kern("a", 1, 10*sim.Microsecond), LaunchOpts{})
		s1.AddCallback(func() { t1 = env.Now() })
		s2.LaunchKernel(p, kern("b", 1, 10*sim.Microsecond), LaunchOpts{})
		s2.AddCallback(func() { t2 = env.Now() })
		ctx.DeviceSynchronize(p)
	})
	env.Run()
	// Both kernels finish at 10µs; the two callbacks serialize on one
	// executor: 45µs and 80µs.
	if t1 != 45*sim.Microsecond {
		t.Fatalf("first callback at %v, want 45µs", t1)
	}
	if t2 != 80*sim.Microsecond {
		t.Fatalf("second callback at %v, want 80µs", t2)
	}
}

func TestLaunchCallCostChargesIssuer(t *testing.T) {
	env := sim.NewEnv()
	cfg := zeroCost()
	cfg.LaunchCallCost = 6 * sim.Microsecond
	ctx, _ := newCtx(env, 4, 4, cfg)
	s := ctx.StreamCreate()
	var issuedAt sim.Time
	env.Spawn("job", func(p *sim.Proc) {
		s.LaunchKernel(p, kern("a", 1, sim.Microsecond), LaunchOpts{})
		s.LaunchKernel(p, kern("b", 1, sim.Microsecond), LaunchOpts{})
		issuedAt = env.Now()
	})
	env.Run()
	if issuedAt != 12*sim.Microsecond {
		t.Fatalf("issue completed at %v, want 12µs", issuedAt)
	}
}

// TestSharedQueueFalseDependency reproduces §5.2's pathology: two
// independent streams forced onto the same hardware queue serialize even
// though the device has free SMs.
func TestSharedQueueFalseDependency(t *testing.T) {
	run := func(queues int) sim.Time {
		env := sim.NewEnv()
		ctx, _ := newCtx(env, 4, queues, zeroCost())
		// Two chains of dependent kernels on separate streams.
		s1, s2 := ctx.StreamCreate(), ctx.StreamCreate()
		var doneAt sim.Time
		env.Spawn("job", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				s1.LaunchKernel(p, kern("a", 1, 10*sim.Microsecond), LaunchOpts{})
			}
			for i := 0; i < 3; i++ {
				s2.LaunchKernel(p, kern("b", 1, 10*sim.Microsecond), LaunchOpts{})
			}
			ctx.DeviceSynchronize(p)
			doneAt = env.Now()
		})
		env.Run()
		return doneAt
	}
	// With one hardware queue, stream 2's first kernel sits behind stream
	// 1's dependent chain: it can only start once a3 has been *placed* at
	// t=20µs (a placed kernel leaves the queue), so the b chain finishes at
	// 50µs instead of 30µs. With two queues the chains fully overlap
	// (30µs). Stream ids are 1 and 2; with 2 queues they map to different
	// queues.
	if d := run(1); d != 50*sim.Microsecond {
		t.Fatalf("1 queue: drained at %v, want 50µs", d)
	}
	if d := run(2); d != 30*sim.Microsecond {
		t.Fatalf("2 queues: drained at %v, want 30µs", d)
	}
}

type recordingHook struct {
	kernels []string
	copies  int
	pending []func()
}

func (h *recordingHook) HookKernel(streamID int, spec *gpu.KernelSpec, complete func()) {
	h.kernels = append(h.kernels, spec.Name)
	h.pending = append(h.pending, complete)
}

func (h *recordingHook) HookMemcpy(streamID int, kind MemcpyKind, bytes int, complete func()) {
	h.copies++
	h.pending = append(h.pending, complete)
}

func TestHookInterceptsEverything(t *testing.T) {
	env := sim.NewEnv()
	ctx, dev := newCtx(env, 4, 4, zeroCost())
	h := &recordingHook{}
	ctx.SetHook(h)
	s := ctx.StreamCreate()
	synced := false
	env.Spawn("job", func(p *sim.Proc) {
		s.MemcpyAsync(p, HostToDevice, 100)
		s.LaunchKernel(p, kern("a", 1, sim.Microsecond), LaunchOpts{})
		s.LaunchKernel(p, kern("b", 1, sim.Microsecond), LaunchOpts{})
		s.MemcpyAsync(p, DeviceToHost, 100)
		ctx.DeviceSynchronize(p)
		synced = true
	})
	env.RunUntil(sim.Millisecond)
	if len(h.kernels) != 2 || h.copies != 2 {
		t.Fatalf("hook saw %v kernels, %d copies", h.kernels, h.copies)
	}
	if dev.Stats().KernelsSubmitted != 0 {
		t.Fatal("hooked kernels leaked to the hardware queues")
	}
	if synced {
		t.Fatal("DeviceSynchronize returned before hook completed ops")
	}
	// Complete the ops in issue order, as the dispatcher would.
	for _, fn := range h.pending {
		fn()
	}
	env.Run()
	if !synced {
		t.Fatal("DeviceSynchronize never returned")
	}
}

func TestSetHookWithInflightPanics(t *testing.T) {
	env := sim.NewEnv()
	ctx, _ := newCtx(env, 4, 4, zeroCost())
	s := ctx.StreamCreate()
	env.Spawn("job", func(p *sim.Proc) {
		s.LaunchKernel(p, kern("a", 1, 100*sim.Microsecond), LaunchOpts{})
	})
	env.RunUntil(10 * sim.Microsecond)
	defer func() {
		if recover() == nil {
			t.Error("SetHook with in-flight ops did not panic")
		}
	}()
	ctx.SetHook(&recordingHook{})
}

func TestKernelIDsUnique(t *testing.T) {
	env := sim.NewEnv()
	ctx, _ := newCtx(env, 4, 4, zeroCost())
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		id := ctx.NextKernelID()
		if id == 0 || seen[id] {
			t.Fatalf("duplicate or zero kernel id %d", id)
		}
		seen[id] = true
	}
}

func TestMemcpyKindString(t *testing.T) {
	if HostToDevice.String() != "cudaMemcpyHostToDevice" ||
		DeviceToHost.String() != "cudaMemcpyDeviceToHost" ||
		DeviceToDevice.String() != "cudaMemcpyDeviceToDevice" {
		t.Error("unexpected MemcpyKind strings")
	}
}

func TestDeviceSynchronizeIdleReturnsImmediately(t *testing.T) {
	env := sim.NewEnv()
	cfg := zeroCost()
	cfg.SyncCallCost = 8 * sim.Microsecond
	ctx, _ := newCtx(env, 4, 4, cfg)
	var at sim.Time = -1
	env.Spawn("job", func(p *sim.Proc) {
		ctx.DeviceSynchronize(p)
		at = env.Now()
	})
	env.Run()
	if at != 8*sim.Microsecond {
		t.Fatalf("sync returned at %v, want just the call cost 8µs", at)
	}
}

func TestEventOnEmptyStreamFiresImmediately(t *testing.T) {
	env := sim.NewEnv()
	ctx, _ := newCtx(env, 2, 2, zeroCost())
	s := ctx.StreamCreate()
	fired := false
	s.EventRecord().OnFire(func() { fired = true })
	env.Run()
	if !fired {
		t.Fatal("event on empty stream never fired")
	}
	if env.Now() != 0 {
		t.Fatalf("event fired at %v, want 0", env.Now())
	}
}

func TestCallbackOnEmptyStream(t *testing.T) {
	env := sim.NewEnv()
	cfg := zeroCost()
	cfg.CallbackCost = 10 * sim.Microsecond
	ctx, _ := newCtx(env, 2, 2, cfg)
	s := ctx.StreamCreate()
	var at sim.Time = -1
	s.AddCallback(func() { at = env.Now() })
	env.Run()
	if at != 10*sim.Microsecond {
		t.Fatalf("callback at %v, want 10µs (executor cost only)", at)
	}
}

func TestStreamSynchronizeWhileEmpty(t *testing.T) {
	env := sim.NewEnv()
	cfg := zeroCost()
	cfg.SyncCallCost = 5 * sim.Microsecond
	ctx, _ := newCtx(env, 2, 2, cfg)
	s := ctx.StreamCreate()
	var at sim.Time = -1
	env.Spawn("sync", func(p *sim.Proc) {
		s.Synchronize(p)
		at = env.Now()
	})
	env.Run()
	if at != 5*sim.Microsecond {
		t.Fatalf("sync returned at %v, want just the call cost", at)
	}
}

func TestConcurrentSynchronizers(t *testing.T) {
	env := sim.NewEnv()
	ctx, _ := newCtx(env, 4, 4, zeroCost())
	s := ctx.StreamCreate()
	woke := 0
	env.Spawn("issuer", func(p *sim.Proc) {
		s.LaunchKernel(p, kern("k", 1, 50*sim.Microsecond), LaunchOpts{})
	})
	for i := 0; i < 3; i++ {
		env.Spawn("waiter", func(p *sim.Proc) {
			p.Sleep(1)
			s.Synchronize(p)
			if env.Now() < 50*sim.Microsecond {
				t.Errorf("waiter woke at %v before kernel end", env.Now())
			}
			woke++
		})
	}
	env.Run()
	if woke != 3 {
		t.Fatalf("woke %d of 3 synchronizers", woke)
	}
}

func TestPendingCounts(t *testing.T) {
	env := sim.NewEnv()
	ctx, _ := newCtx(env, 4, 4, zeroCost())
	s := ctx.StreamCreate()
	env.Spawn("issuer", func(p *sim.Proc) {
		s.LaunchKernel(p, kern("a", 1, 10*sim.Microsecond), LaunchOpts{})
		s.LaunchKernel(p, kern("b", 1, 10*sim.Microsecond), LaunchOpts{})
		if len(s.pending) != 2 {
			t.Errorf("%d ops pending, want 2", len(s.pending))
		}
	})
	env.Run()
	if len(s.pending) != 0 {
		t.Fatalf("%d ops pending after drain", len(s.pending))
	}
}
