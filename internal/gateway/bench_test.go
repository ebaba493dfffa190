package gateway

import (
	"fmt"
	"testing"

	"paella/internal/sim"
)

// pickSink keeps the benchmarked picks live.
var pickSink int

// BenchmarkGatewayPick times one routing decision over a fleet whose
// replicas differ in load, queued work and residency.
func BenchmarkGatewayPick(b *testing.B) {
	for _, p := range []Policy{NewLeastLoaded(), NewPredictedLatency()} {
		for _, n := range []int{4, 16} {
			replicas := make([]Replica, n)
			for i := range replicas {
				replicas[i] = Replica{
					Index: i, ID: i,
					InFlight: (i * 7) % 5, Capacity: 40 * 1024,
					Warm:    i%3 != 0,
					QueueNs: sim.Time((i*13)%7) * sim.Millisecond,
					CostNs:  2 * sim.Millisecond,
				}
				if !replicas[i].Warm {
					replicas[i].LoadPenaltyNs = 5 * sim.Millisecond
				}
			}
			req := Request{Model: "zoo-00"}
			b.Run(fmt.Sprintf("%s/replicas=%d", p.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pickSink = p.Pick(req, replicas)
				}
			})
		}
	}
}
