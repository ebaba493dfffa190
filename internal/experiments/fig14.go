package experiments

import (
	"fmt"
	"io"

	"paella/internal/client"
	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
)

func init() {
	register(Experiment{
		Name:  "fig14",
		Title: "Figure 14: client CPU utilization under socket, polling and hybrid protocols",
		Run:   runFig14,
	})
}

// runFig14 drives a closed-loop client submitting a small synthetic model
// as fast as responses return (the paper's ~6,700 req/s stress) and
// reports CPU utilization and mean latency per wakeup protocol.
func runFig14(w io.Writer, d Detail) error {
	requests := 20000
	if d == Quick {
		requests = 2000
	}
	type result struct {
		rate float64
		mean sim.Time
		util float64
	}
	run := func(proto client.Protocol) result {
		env := sim.NewEnv()
		devCfg := gpu.TeslaT4()
		disp := core.NewWithDevice(env, devCfg, core.DefaultConfig(sched.NewPaella(sched.DefaultFairnessThreshold)))
		ins := compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 2)
		if err := disp.RegisterModel(ins); err != nil {
			panic(err)
		}
		disp.Start()
		c := client.New(env, disp, proto)
		var total sim.Time
		env.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < requests; i++ {
				start := env.Now()
				c.Predict(p, "tinynet")
				c.ReadResult(p)
				total += env.Now() - start
			}
		})
		env.Run()
		return result{
			rate: float64(requests) / env.Now().Seconds(),
			mean: total / sim.Time(requests),
			util: c.CPU().Utilization(),
		}
	}
	fmt.Fprintln(w, "Figure 14 — client CPU utilization (closed loop, TinyNet):")
	fmt.Fprintf(w, "  %-22s %12s %12s %10s\n", "protocol", "req/s", "mean lat", "CPU util")
	labels := map[client.Protocol]string{
		client.ProtocolSocket:  "Baseline (Unix socket)",
		client.ProtocolPolling: "Polling",
		client.ProtocolHybrid:  "Paella (hybrid)",
	}
	var socketLat, hybridLat sim.Time
	for _, proto := range []client.Protocol{client.ProtocolSocket, client.ProtocolPolling, client.ProtocolHybrid} {
		r := run(proto)
		fmt.Fprintf(w, "  %-22s %12.0f %12v %9.1f%%\n", labels[proto], r.rate, r.mean, r.util*100)
		switch proto {
		case client.ProtocolSocket:
			socketLat = r.mean
		case client.ProtocolHybrid:
			hybridLat = r.mean
		}
	}
	fmt.Fprintf(w, "\n  socket-vs-hybrid latency penalty: %.1f%%\n",
		(float64(socketLat)/float64(hybridLat)-1)*100)
	fmt.Fprintln(w, "\nExpected shape (paper): polling pins a core (~100%); the socket")
	fmt.Fprintln(w, "baseline uses the least CPU but is ~10% slower; the hybrid scheme")
	fmt.Fprintln(w, "matches polling latency at ~23% utilization (the exact figure tracks")
	fmt.Fprintln(w, "the fraction of the job spent in its final operator).")
	return nil
}
