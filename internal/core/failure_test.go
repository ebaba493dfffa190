package core

import (
	"testing"

	"paella/internal/channel"
	"paella/internal/compiler"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
)

// TestTinyRequestRingBackpressure floods a request ring with more requests
// than it holds: Submit must report false (never drop silently), and a
// client that backs off and retries eventually gets everything served.
func TestTinyRequestRingBackpressure(t *testing.T) {
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	d := NewWithDevice(env, devCfg, DefaultConfig(sched.NewPaella(10000)))
	ins := compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 1)
	if err := d.RegisterModel(ins); err != nil {
		t.Fatal(err)
	}
	d.Start()
	conn := d.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }

	const jobs = RingCapacity + 64
	rejected := 0
	env.Spawn("flooder", func(p *sim.Proc) {
		for i := 0; i < jobs; i++ {
			req := Request{ID: uint64(i + 1), Model: "tinynet", Client: 0, Submit: env.Now()}
			for !conn.Submit(req) {
				rejected++
				p.Sleep(5 * sim.Microsecond)
			}
		}
	})
	env.Run()
	if done != jobs {
		t.Fatalf("completed %d of %d", done, jobs)
	}
	if rejected == 0 {
		t.Fatalf("a %d-slot ring never exerted backpressure on a %d-job flood", RingCapacity, jobs)
	}
}

// TestNotifQFlowControl runs a block-heavy workload against a small
// notification queue. The §5.2 flow-control argument — outstanding demand
// is capped by the number of outstanding blocks, which the overshoot
// budget bounds — must keep the unchecked writer from overrunning the
// consumer (an overrun would surface as a lost completion and a stuck or
// panicking dispatcher).
func TestNotifQFlowControl(t *testing.T) {
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	cfg := DefaultConfig(sched.NewSRPT())
	cfg.OvershootBlocks = 32
	nq := channel.NewNotifQueue(256) // small but ≥ outstanding-block records
	d := New(env, gpu.NewDevice(env, devCfg, nq), nq, cfg)
	m := model.Generate(model.Table2()[5]) // densenet: 200 launches, 7408 blocks
	ins := compiler.MustCompile(m, compiler.DefaultConfig(), devCfg, 1)
	if err := d.RegisterModel(ins); err != nil {
		t.Fatal(err)
	}
	d.Start()
	conn := d.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	const jobs = 12
	for i := 0; i < jobs; i++ {
		id := uint64(i + 1)
		env.At(0, func() {
			conn.Submit(Request{ID: id, Model: m.Name, Client: 0, Submit: 0})
		})
	}
	env.Run()
	if done != jobs {
		t.Fatalf("completed %d of %d — notification loss under small notifQ", done, jobs)
	}
	if d.inflight.len() != 0 || !d.mirror.Idle() {
		t.Fatal("dispatcher state not clean after drain")
	}
}

// TestAllModesRandomMix churns every dispatcher mode with a random model
// mix and checks conservation: every admitted job completes exactly once
// and all mirror/in-flight state drains.
func TestAllModesRandomMix(t *testing.T) {
	models := []*model.Model{
		model.TinyNet(),
		model.Generate(model.Table2()[0]),
		model.Generate(model.Table2()[3]),
	}
	for _, mode := range []Mode{ModeGated, ModeKernelByKernel, ModeJobByJob, ModeSingleStream} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			env := sim.NewEnv()
			devCfg := gpu.TeslaT4()
			cfg := DefaultConfig(sched.NewPaella(10000))
			cfg.Mode = mode
			if mode != ModeGated {
				cfg.Policy = nil
			}
			d := NewWithDevice(env, devCfg, cfg)
			for _, m := range models {
				ins := compiler.MustCompile(m, compiler.DefaultConfig(), devCfg, 1)
				if err := d.RegisterModel(ins); err != nil {
					t.Fatal(err)
				}
			}
			d.Start()
			completions := map[uint64]int{}
			const clients, perClient = 3, 15
			for c := 0; c < clients; c++ {
				conn := d.Connect()
				conn.OnComplete = func(id uint64) { completions[id]++ }
				for i := 0; i < perClient; i++ {
					id := uint64(c*1000 + i + 1)
					mdl := models[(c+i)%len(models)].Name
					cn := conn
					env.At(sim.Time(i*137+c*11)*sim.Microsecond, func() {
						if !cn.Submit(Request{ID: id, Model: mdl, Client: cn.ID, Submit: env.Now()}) {
							t.Error("ring full in random mix")
						}
					})
				}
			}
			env.Run()
			if len(completions) != clients*perClient {
				t.Fatalf("%d of %d jobs completed", len(completions), clients*perClient)
			}
			for id, n := range completions {
				if n != 1 {
					t.Fatalf("job %d completed %d times", id, n)
				}
			}
			st := d.Stats()
			if st.Admitted != st.Completed {
				t.Fatalf("conservation violated: %+v", st)
			}
			if mode == ModeGated && (d.inflight.len() != 0 || !d.mirror.Idle()) {
				t.Fatal("gated state not drained")
			}
		})
	}
}
