package autoscale

import (
	"testing"
)

// FuzzAutoscalePolicyConfig fuzzes PolicyConfig field values through
// NewFromConfig: it must never panic, it must build a policy exactly when
// Validate accepts the config, and every built policy must return a
// reasonable target on a sweep of extreme synthetic signals.
func FuzzAutoscalePolicyConfig(f *testing.F) {
	f.Add("static", 6)
	f.Add("queue-depth", 0)
	f.Add("step", 0)
	f.Add("slo-burn", 0)
	f.Add("predictive", 0)
	f.Add("oracle", 0)  // invalid: unknown policy
	f.Add("static", -1) // invalid: negative pool
	f.Fuzz(func(t *testing.T, name string, fixed int) {
		pc := PolicyConfig{Name: name, Fixed: fixed}
		p, err := NewFromConfig(pc)
		if verr := pc.Validate(); (err == nil) != (verr == nil) {
			t.Fatalf("NewFromConfig error %v disagrees with Validate error %v for %+v", err, verr, pc)
		}
		if err != nil {
			return // rejected config: the only requirement is "no panic"
		}
		if p.Name() == "" {
			t.Fatal("unnamed policy")
		}
		// Sweep synthetic signals: extreme queues, zero fleets, firing SLOs.
		for _, sig := range []Signals{
			{},
			{Active: 1, Target: 1, InFlight: 1 << 20, ArrivalRate: 1e6, ReplicaRate: 1},
			{Active: 64, Warming: 8, Draining: 8, Target: 64, SLOFiring: true, ReplicaRate: 500, ArrivalRate: 3},
			{Active: 2, Target: 2, ArrivalRate: 0, CompletionRate: 0, ReplicaRate: 1000},
		} {
			got := p.Target(sig)
			if got < -(1<<30) || got > 1<<30 {
				t.Fatalf("policy %s target %d unreasonable for %+v", p.Name(), got, sig)
			}
		}
	})
}
