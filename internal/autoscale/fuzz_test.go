package autoscale

import (
	"testing"
)

// FuzzAutoscalePolicyConfig fuzzes policy names through New: it must never
// panic, it must fail exactly for a name outside the registry, and every
// built policy must return a reasonable target on a sweep of extreme
// synthetic signals. Its name predates the deletion of the PolicyConfig
// type.
func FuzzAutoscalePolicyConfig(f *testing.F) {
	f.Add("static")
	f.Add("queue-depth")
	f.Add("step")
	f.Add("slo-burn")
	f.Add("predictive")
	f.Add("oracle") // invalid: unknown policy
	f.Add("")       // invalid: no name
	f.Fuzz(func(t *testing.T, name string) {
		p, err := New(name)
		if _, known := policies[name]; (err == nil) != known {
			t.Fatalf("New(%q) error %v, registered %v", name, err, known)
		}
		if err != nil {
			return // rejected name: the only requirement is "no panic"
		}
		if p.Name() == "" {
			t.Fatal("unnamed policy")
		}
		// Sweep synthetic signals: extreme queues, zero fleets, firing SLOs.
		for _, sig := range []Signals{
			{},
			{Active: 1, Target: 1, InFlight: 1 << 20, ArrivalRate: 1e6, ReplicaRate: 1},
			{Active: 64, Warming: 8, Target: 64, SLOFiring: true, ReplicaRate: 500, ArrivalRate: 3},
			{Active: 2, Target: 2, ArrivalRate: 0, CompletionRate: 0, ReplicaRate: 1000},
		} {
			got := p.Target(sig)
			if got < -(1<<30) || got > 1<<30 {
				t.Fatalf("policy %s target %d unreasonable for %+v", p.Name(), got, sig)
			}
		}
	})
}
