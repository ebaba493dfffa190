package remote

import (
	"testing"

	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
)

func setup(t *testing.T) (*sim.Env, *core.Dispatcher) {
	t.Helper()
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	d := core.NewWithDevice(env, devCfg, core.DefaultConfig(sched.NewPaella(10000)))
	ins := compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 1)
	if err := d.RegisterModel(ins); err != nil {
		t.Fatal(err)
	}
	d.Start()
	return env, d
}

func TestRemoteRoundTrip(t *testing.T) {
	env, d := setup(t)
	gw := NewGateway(env, d, DefaultNet())
	c := NewClient(env, gw)
	var jct sim.Time
	env.Spawn("remote-client", func(p *sim.Proc) {
		start := env.Now()
		id := c.Predict(p, "tinynet", 28*28*4, 10*4)
		if err := c.Wait(p, id); err != nil {
			t.Errorf("Wait: %v", err)
		}
		jct = env.Now() - start
	})
	env.Run()
	if jct <= 0 {
		t.Fatal("remote request never completed")
	}
	if len(c.inflight) != 0 {
		t.Fatalf("%d requests awaiting responses", len(c.inflight))
	}
	// Remote adds ≥ RTT + per-message CPU over the local path.
	if jct < DefaultNet().RTT {
		t.Fatalf("JCT %v below network RTT", jct)
	}
}

func TestRemoteVsLocalOverhead(t *testing.T) {
	// Local path.
	env, d := setup(t)
	conn := d.Connect()
	var localDone sim.Time
	conn.OnComplete = func(uint64) { localDone = env.Now() }
	env.At(0, func() {
		conn.Submit(core.Request{ID: 1, Model: "tinynet", Client: conn.ID, Submit: 0})
	})
	env.Run()

	// Remote path on a fresh timeline.
	env2, d2 := setup(t)
	gw := NewGateway(env2, d2, DefaultNet())
	c := NewClient(env2, gw)
	var remoteJCT sim.Time
	env2.Spawn("remote", func(p *sim.Proc) {
		start := env2.Now()
		id := c.Predict(p, "tinynet", 28*28*4, 10*4)
		c.Wait(p, id)
		remoteJCT = env2.Now() - start
	})
	env2.Run()

	extra := remoteJCT - localDone
	// The eRPC-class network adds on the order of the RTT plus message
	// CPU — tens of µs, not the hundreds a gRPC frontend costs.
	if extra < 10*sim.Microsecond || extra > 100*sim.Microsecond {
		t.Fatalf("remote overhead = %v (local %v, remote %v), want 10-100µs",
			extra, localDone, remoteJCT)
	}
}

func TestRemoteManyConcurrent(t *testing.T) {
	env, d := setup(t)
	gw := NewGateway(env, d, DefaultNet())
	c := NewClient(env, gw)
	const n = 50
	completed := 0
	env.Spawn("remote", func(p *sim.Proc) {
		ids := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, c.Predict(p, "tinynet", 28*28*4, 10*4))
		}
		for _, id := range ids {
			if err := c.Wait(p, id); err != nil {
				t.Errorf("Wait(%d): %v", id, err)
			}
			completed++
		}
	})
	env.Run()
	if completed != n {
		t.Fatalf("completed %d of %d", completed, n)
	}
}

func TestLargeTensorTransferCost(t *testing.T) {
	net := DefaultNet()
	small := net.transfer(1 << 10)
	large := net.transfer(16 << 20)
	// 16MB at 12.5 B/ns ≈ 1.34ms — must dominate the RTT.
	if large < 100*small {
		t.Fatalf("bandwidth model broken: 1KB=%v 16MB=%v", small, large)
	}
}

// TestRingFullBackoff regression-tests the gateway's retry policy: with a
// full request ring and a stalled dispatcher, submits back off with jittered
// exponential delays and eventually surface ErrRingFull to Wait instead of
// retrying forever (the old behaviour polled every 20µs unboundedly).
func TestRingFullBackoff(t *testing.T) {
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	d := core.NewWithDevice(env, devCfg, core.DefaultConfig(sched.NewPaella(10000)))
	ins := compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 1)
	if err := d.RegisterModel(ins); err != nil {
		t.Fatal(err)
	}
	// Dispatcher never started: the ring fills and stays full. The
	// requests that did enter the ring are reaped by the gateway timeout.
	net := DefaultNet()
	net.MaxAttempts = 4
	net.RequestTimeout = 50 * sim.Millisecond
	gw := NewGateway(env, d, net)
	c := NewClient(env, gw)
	errs := make(map[uint64]error)
	env.Spawn("remote", func(p *sim.Proc) {
		ids := make([]uint64, 0, core.RingCapacity+2)
		for i := 0; i < core.RingCapacity+2; i++ {
			ids = append(ids, c.Predict(p, "tinynet", 1<<10, 1<<8))
		}
		for _, id := range ids {
			errs[id] = c.Wait(p, id)
		}
	})
	env.Run()
	ringFull, timedOut := 0, 0
	for _, err := range errs {
		switch err {
		case ErrRingFull:
			ringFull++
		case ErrGatewayTimeout:
			timedOut++
		}
	}
	// The ring's requests time out; the other 2 must exhaust their attempts.
	if ringFull != 2 || timedOut != core.RingCapacity {
		t.Fatalf("ErrRingFull=%d ErrGatewayTimeout=%d, want 2 and %d",
			ringFull, timedOut, core.RingCapacity)
	}
	if len(c.inflight) != 0 {
		t.Fatalf("%d requests awaiting responses after failures", len(c.inflight))
	}
}

// TestBackoffJitterDeterministic: equal seeds give identical retry
// timelines; different seeds diverge.
func TestBackoffJitterDeterministic(t *testing.T) {
	run := func(seed int64) sim.Time {
		env := sim.NewEnv()
		devCfg := gpu.TeslaT4()
		d := core.NewWithDevice(env, devCfg, core.DefaultConfig(sched.NewPaella(10000)))
		ins := compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 1)
		if err := d.RegisterModel(ins); err != nil {
			t.Fatal(err)
		}
		net := DefaultNet()
		net.MaxAttempts = 5
		net.Seed = seed
		net.RequestTimeout = 50 * sim.Millisecond
		gw := NewGateway(env, d, net)
		c := NewClient(env, gw)
		var end sim.Time
		env.Spawn("remote", func(p *sim.Proc) {
			ids := make([]uint64, 0, core.RingCapacity+1)
			for i := 0; i <= core.RingCapacity; i++ {
				ids = append(ids, c.Predict(p, "tinynet", 1<<10, 1<<8))
			}
			// The last request never fits the full ring: its Wait returns
			// at the jitter-determined moment the attempts ran out.
			last := ids[core.RingCapacity]
			if err := c.Wait(p, last); err != ErrRingFull {
				t.Errorf("seed %d: Wait(last) = %v, want ErrRingFull", seed, err)
			}
			end = env.Now()
			for _, id := range ids[:core.RingCapacity] {
				c.Wait(p, id)
			}
		})
		env.Run()
		return end
	}
	a, b, c2 := run(1), run(1), run(2)
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if a == c2 {
		t.Fatalf("different seeds produced identical retry timelines (%v)", a)
	}
}

// TestGatewayTimeout: a request the dispatcher never answers returns
// ErrGatewayTimeout after NetConfig.RequestTimeout.
func TestGatewayTimeout(t *testing.T) {
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	d := core.NewWithDevice(env, devCfg, core.DefaultConfig(sched.NewPaella(10000)))
	ins := compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 1)
	if err := d.RegisterModel(ins); err != nil {
		t.Fatal(err)
	}
	// Dispatcher never started: the request sits in the ring forever.
	net := DefaultNet()
	net.RequestTimeout = 5 * sim.Millisecond
	gw := NewGateway(env, d, net)
	c := NewClient(env, gw)
	var got error
	var at sim.Time
	env.Spawn("remote", func(p *sim.Proc) {
		id := c.Predict(p, "tinynet", 1<<10, 1<<8)
		got = c.Wait(p, id)
		at = env.Now()
	})
	env.Run()
	if got != ErrGatewayTimeout {
		t.Fatalf("Wait = %v, want ErrGatewayTimeout", got)
	}
	if at < net.RequestTimeout {
		t.Fatalf("timeout fired at %v, before RequestTimeout %v", at, net.RequestTimeout)
	}
}

func TestWaitUnknownPanics(t *testing.T) {
	env, d := setup(t)
	gw := NewGateway(env, d, DefaultNet())
	c := NewClient(env, gw)
	env.Spawn("bad", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Wait on unknown id did not panic")
			}
		}()
		c.Wait(p, 999)
	})
	env.Run()
}
