package client

import (
	"testing"

	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
)

func setup(t *testing.T, proto Protocol) (*sim.Env, *core.Dispatcher, *Client) {
	t.Helper()
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	devCfg.LaunchOverhead = 0
	d := core.NewWithDevice(env, devCfg, core.DefaultConfig(sched.NewPaella(100)))
	ins := compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 2)
	if err := d.RegisterModel(ins); err != nil {
		t.Fatal(err)
	}
	d.Start()
	return env, d, New(env, d, proto)
}

func TestPredictReadRoundTrip(t *testing.T) {
	env, _, c := setup(t, ProtocolHybrid)
	var got uint64
	env.Spawn("client", func(p *sim.Proc) {
		id := c.Predict(p, "tinynet")
		got = c.ReadResult(p)
		if got != id {
			t.Errorf("ReadResult = %d, want %d", got, id)
		}
	})
	env.Run()
	if got == 0 {
		t.Fatal("no result delivered")
	}
}

func TestReadBeforeCompletionAndAfter(t *testing.T) {
	env, _, c := setup(t, ProtocolHybrid)
	order := []uint64{}
	env.Spawn("client", func(p *sim.Proc) {
		a := c.Predict(p, "tinynet")
		b := c.Predict(p, "tinynet")
		// Wait for both completions with one pre-completion read and one
		// post-completion read.
		order = append(order, c.ReadResult(p))
		p.Sleep(10 * sim.Millisecond) // both certainly done now
		order = append(order, c.ReadResult(p))
		if (order[0] != a && order[0] != b) || order[0] == order[1] {
			t.Errorf("results %v for requests %d,%d", order, a, b)
		}
	})
	env.Run()
	if len(order) != 2 {
		t.Fatal("reads did not complete")
	}
}

func TestTryReadResult(t *testing.T) {
	env, _, c := setup(t, ProtocolHybrid)
	env.Spawn("client", func(p *sim.Proc) {
		if _, ok := c.TryReadResult(); ok {
			t.Error("TryReadResult succeeded with nothing outstanding")
		}
		c.Predict(p, "tinynet")
		if _, ok := c.TryReadResult(); ok {
			t.Error("TryReadResult succeeded immediately after submit")
		}
		p.Sleep(10 * sim.Millisecond)
		if id, ok := c.TryReadResult(); !ok || id != 1 {
			t.Errorf("TryReadResult = %d,%v after completion", id, ok)
		}
	})
	env.Run()
}

// TestProtocolsLatencyAndCPU reproduces Figure 14's qualitative result:
// polling and hybrid have comparable latency (socket is slower), while CPU
// utilization orders polling > hybrid > socket.
func TestProtocolsLatencyAndCPU(t *testing.T) {
	type res struct {
		jct  sim.Time
		util float64
	}
	run := func(proto Protocol) res {
		env, _, c := setup(t, proto)
		const n = 50
		var total sim.Time
		env.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				start := env.Now()
				c.Predict(p, "tinynet")
				c.ReadResult(p)
				total += env.Now() - start
			}
		})
		env.Run()
		return res{jct: total / n, util: c.CPU().Utilization()}
	}
	hybrid := run(ProtocolHybrid)
	polling := run(ProtocolPolling)
	socket := run(ProtocolSocket)

	if socket.jct <= polling.jct {
		t.Errorf("socket latency (%v) should exceed polling (%v)", socket.jct, polling.jct)
	}
	// Hybrid must not sacrifice appreciable latency vs polling (<2%).
	if float64(hybrid.jct) > float64(polling.jct)*1.02 {
		t.Errorf("hybrid latency %v too far above polling %v", hybrid.jct, polling.jct)
	}
	if !(polling.util > hybrid.util && hybrid.util > socket.util) {
		t.Errorf("CPU ordering wrong: polling=%.3f hybrid=%.3f socket=%.3f",
			polling.util, hybrid.util, socket.util)
	}
	// In this closed loop the client is always waiting on its one request,
	// so polling sits near 100%.
	if polling.util < 0.9 {
		t.Errorf("polling utilization = %.3f, want ≈1", polling.util)
	}
	if hybrid.util > 0.6 {
		t.Errorf("hybrid utilization = %.3f, want well under polling", hybrid.util)
	}
}

func TestProtocolString(t *testing.T) {
	if ProtocolHybrid.String() != "hybrid" || ProtocolPolling.String() != "polling" || ProtocolSocket.String() != "socket" {
		t.Error("unexpected protocol names")
	}
}

func TestMultipleClients(t *testing.T) {
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	devCfg.LaunchOverhead = 0
	d := core.NewWithDevice(env, devCfg, core.DefaultConfig(sched.NewPaella(100)))
	ins := compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 2)
	if err := d.RegisterModel(ins); err != nil {
		t.Fatal(err)
	}
	d.Start()
	done := 0
	for i := 0; i < 4; i++ {
		c := New(env, d, ProtocolHybrid)
		env.Spawn("client", func(p *sim.Proc) {
			for r := 0; r < 5; r++ {
				c.Predict(p, "tinynet")
				c.ReadResult(p)
				done++
			}
		})
	}
	env.Run()
	if done != 20 {
		t.Fatalf("completed %d of 20", done)
	}
}

func TestClientCancel(t *testing.T) {
	env, d, c := setup(t, ProtocolHybrid)
	_ = d
	var jct sim.Time
	env.Spawn("client", func(p *sim.Proc) {
		id := c.Predict(p, "tinynet")
		c.Cancel(id)
		got := c.ReadResult(p)
		if got != id {
			t.Errorf("ReadResult = %d, want %d", got, id)
		}
		jct = env.Now()
	})
	env.Run()
	if jct == 0 {
		t.Fatal("cancelled request never delivered a completion")
	}
}
