package autoscale_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"paella/internal/autoscale"
	"paella/internal/cluster"
	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/vram"
	"paella/internal/workload"
)

// guardBalancer wraps a balancer and records any pick that lands on a
// replica the autoscaler does not consider active — the property "no job
// is ever routed to a draining or retired replica", checked by stable
// physical ID at pick time (picks are synchronous on the control
// timeline, so the scaler's state is exact when Pick runs).
type guardBalancer struct {
	inner      gateway.Policy
	state      func(id int) autoscale.ReplicaState
	violations []string
}

func (g *guardBalancer) Name() string { return g.inner.Name() }

func (g *guardBalancer) Pick(req gateway.Request, replicas []gateway.Replica) int {
	idx := g.inner.Pick(req, replicas)
	if g.state != nil && idx >= 0 && idx < len(replicas) {
		id := replicas[idx].ID
		if st := g.state(id); st != autoscale.ReplicaActive {
			g.violations = append(g.violations,
				fmt.Sprintf("replica %d picked while %s", id, st))
		}
	}
	return idx
}

// TestAutoscaleConservationUnderChurn is the churn property, driven by
// testing/quick over random (seed, policy, shape) triples: for every
// autoscaled run, completed + shed + failed must equal submitted, nothing
// may remain outstanding after the drain window, no in-flight work may
// survive on any replica, and no request may ever be routed to a replica
// that is draining, parked, or warming.
func TestAutoscaleConservationUnderChurn(t *testing.T) {
	policies := autoscale.Names()
	shapes := []func(seed int64) workload.TrafficSpec{diurnalCell, spikeCell}

	prop := func(seed int64, polPick, shapePick uint8) bool {
		if seed < 0 {
			seed = -seed
		}
		seed = seed%1000 + 1
		policy := policies[int(polPick)%len(policies)]
		spec := shapes[int(shapePick)%len(shapes)](seed)
		// Shrink the trace: the property needs churn, not scale.
		spec.Duration /= 2
		spec.Period /= 2
		spec.SpikeAt /= 2
		spec.SpikeDuration /= 2

		w := sim.NewWorld()
		w.SetParallel(true)
		defer w.Close()
		guard := &guardBalancer{inner: gateway.NewLeastLoaded()}
		devs := []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4(), gpu.TeslaT4()}
		c, err := cluster.NewWorldWithConfig(w, devs, func(int, gpu.Config) core.Config {
			cfg := core.DefaultConfig(sched.NewPaella(10000))
			cfg.VRAM = &vram.Config{CapacityBytes: 32 << 20}
			return cfg
		}, guard, func(int, *sim.Env) {})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*model.Model{
			autoscaleModel("autonet-a", 400, 8),
			autoscaleModel("autonet-b", 300, 6),
		} {
			if err := c.RegisterModel(m, compiler.DefaultConfig(), 1); err != nil {
				t.Fatal(err)
			}
		}
		pol, err := autoscale.New(policy)
		if err != nil {
			t.Fatal(err)
		}
		s, err := autoscale.NewScaler(w.Ctrl(), c, autoscale.Config{
			Min: 1, Max: 3, Initial: 2,
			Interval: 5 * sim.Millisecond,
			Policy:   pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		guard.state = s.State
		front := autoscale.NewFront(s)

		reqs, err := workload.GenerateTraffic(spec)
		if err != nil {
			t.Fatal(err)
		}
		last := sim.Time(0)
		for i, r := range reqs {
			id := uint64(i + 1)
			req := core.Request{ID: id, Model: r.Model, Client: r.Client, Submit: r.At}
			last = r.At
			w.Ctrl().At(r.At, func() { front.Submit(req) })
		}
		s.Start()
		w.RunUntil(last + 2*sim.Second)

		counts := front.Counts()
		if counts.Submitted != len(reqs) {
			t.Logf("%s/%d: submitted %d of %d", policy, seed, counts.Submitted, len(reqs))
			return false
		}
		if !counts.Conserved() {
			t.Logf("%s/%d: leaked: %+v", policy, seed, counts)
			return false
		}
		if front.Outstanding() != 0 {
			t.Logf("%s/%d: %d outstanding after drain", policy, seed, front.Outstanding())
			return false
		}
		for i := 0; i < c.Size(); i++ {
			if c.InFlight(i) != 0 {
				t.Logf("%s/%d: replica %d still has in-flight work", policy, seed, i)
				return false
			}
		}
		if len(guard.violations) != 0 {
			t.Logf("%s/%d: %d routing violations, first: %s",
				policy, seed, len(guard.violations), guard.violations[0])
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
