// Gateway: multi-tenant traffic through the cluster gateway — routing
// policies and admission control (ROADMAP item 4, building on the paper's
// §8 many-model setting).
//
// Three tenants share a heterogeneous three-GPU fleet. First the same
// trace runs under two routing policies — count-based least-loaded vs the
// gateway's predicted-latency, which prices queued work, device speed,
// and cold-start paging per replica — and the p99 gap shows why counting
// in-flight requests misprices a mixed fleet. Then one tenant floods the
// cluster and per-tenant token-bucket admission sheds the excess at the
// front door: shed requests fail fast with gateway.ErrTenantShed (handled
// via errors.Is below) while the well-behaved tenants' tails recover.
//
//	go run ./examples/gateway
package main

import (
	"errors"
	"fmt"

	"paella/internal/compiler"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/vram"
	"paella/internal/workload"
)

// run plays one tenant-tagged trace through a P100+T4+GTX1660S fleet under
// the given balancer and admission config, returning the merged collector,
// the per-tenant shed counts, and how many sheds the client saw as typed
// errors.
func run(mk func() gateway.Policy, admit *gateway.Admission,
	trace []workload.Request, zoo []*model.Model) (*metrics.Collector, *gateway.Admission, int) {
	f, err := serving.NewFleet(serving.Options{Models: zoo, CompilerCfg: compiler.DefaultConfig(), ProfileRuns: 1,
		VRAM:    &vram.Config{CapacityBytes: 128 << 20},
		Devices: []gpu.Config{gpu.TeslaP100(), gpu.TeslaT4(), gpu.GTX1660Super()},
		Gateway: mk,
	})
	if err != nil {
		panic(err)
	}
	f.SetAdmission(admit)
	conn := f.Connect()
	shedSeen := 0
	conn.OnFailed = func(_ uint64, err error) {
		// The typed shed error arrives through the normal failure path, so
		// clients distinguish "slow down" from a crashed replica.
		if errors.Is(err, gateway.ErrTenantShed) {
			shedSeen++
		}
	}
	f.Arrive(trace, conn.Submit)
	f.RunUntil(trace[len(trace)-1].At + 8*sim.Second)
	return f.Collector(), admit, shedSeen
}

func main() {
	// A small zoo with spread-out service times and weight footprints, so
	// residency and device speed both matter to the router.
	zoo := make([]*model.Model, 6)
	names := make([]string, len(zoo))
	for i := range zoo {
		zoo[i] = model.Generate(model.ZooEntry{
			Name:        fmt.Sprintf("m-%d", i),
			ExecTime:    sim.Time(200+180*i) * sim.Microsecond,
			Executions:  6,
			Unique:      3,
			InputBytes:  16 << 10,
			OutputBytes: 4 << 10,
			WeightBytes: (24 + 16*i) << 20,
		})
		names[i] = zoo[i].Name
	}
	trace := workload.MustGenerate(workload.Spec{
		Mix: workload.ZipfMix(names, 1.1), Sigma: 2,
		RatePerSec: 800, Jobs: 1200, Clients: 8, Seed: 7,
		Tenants: 3,
	})

	fmt.Println("Part 1 — routing policy head-to-head (same trace, same fleet):")
	fmt.Printf("  %-18s %12s %12s\n", "policy", "p50", "p99")
	for _, mk := range []func() gateway.Policy{
		gateway.NewLeastLoaded,
		gateway.NewPredictedLatency,
	} {
		col, _, _ := run(mk, nil, trace, zoo)
		fmt.Printf("  %-18s %12v %12v\n", mk().Name(), col.P50(), col.P99())
	}

	// tenant-0 floods: retag so it offers half the total load.
	flooded := make([]workload.Request, len(trace))
	copy(flooded, trace)
	for i := range flooded {
		if i%2 == 0 {
			flooded[i].Tenant = "tenant-0"
		}
	}
	fmt.Println("\nPart 2 — tenant-0 floods; token-bucket admission (260 req/s each):")
	fmt.Printf("  %-10s %-10s %12s %10s\n", "admission", "tenant", "p99", "shed")
	for _, on := range []bool{false, true} {
		var admit *gateway.Admission
		label := "off"
		if on {
			admit = gateway.NewAdmission(gateway.TenantLimit{RatePerSec: 260})
			label = "on"
		}
		col, adm, shedSeen := run(gateway.NewPredictedLatency, admit, flooded, zoo)
		for _, tn := range col.Tenants() {
			shed := 0
			if adm != nil {
				for _, st := range adm.Stats() {
					if st.Tenant == tn {
						shed = st.Shed
					}
				}
			}
			fmt.Printf("  %-10s %-10s %12v %10d\n",
				label, tn, col.FilterTenant(tn).Succeeded().P99(), shed)
		}
		if on {
			fmt.Printf("  (client saw %d typed gateway.ErrTenantShed failures)\n", shedSeen)
		}
	}
}
