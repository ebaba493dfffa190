package autoscale

import (
	"fmt"
	"sort"

	"paella/internal/gpu"
)

// Offer is one purchasable GPU type for the fleet-mix optimizer: a device
// configuration, its hourly price, and its measured per-replica
// throughput for the target model mix (calibrate with a short saturating
// run — the experiment does).
type Offer struct {
	// Name labels the type in reports ("t4", "p100", "gtx1660").
	Name string
	// Dev is the device configuration replicas of this type run.
	Dev gpu.Config
	// DollarsPerHour is the hourly price per replica.
	DollarsPerHour float64
	// RatePerSec is the sustainable per-replica throughput in req/s.
	RatePerSec float64
	// Max caps how many replicas of this type are available (0 = 64).
	Max int
}

// FleetMix is an optimizer solution: how many replicas of each offer to
// provision, with the mix's aggregate price and capacity.
type FleetMix struct {
	// Counts is parallel to the offers slice passed to OptimizeMix.
	Counts []int
	// CostPerHour is the mix's total hourly price.
	CostPerHour float64
	// RatePerSec is the mix's total sustained capacity.
	RatePerSec float64
}

// OptimizeMix picks the cheapest heterogeneous fleet that sustains the
// demand: offers are ranked by cost efficiency ($ per unit of throughput,
// ties broken by name for determinism) and filled greedily until capacity
// covers demand·headroom, falling over to the next type when one caps
// out. Greedy is exact here up to one replica of rounding — replica
// counts are integers, so the last replica of the efficient type may
// overshoot where a fractional replica of a pricier type would not; the
// optimizer keeps the overshoot (capacity errs high, never low).
func OptimizeMix(offers []Offer, demandPerSec, headroom float64) (FleetMix, error) {
	if len(offers) == 0 {
		return FleetMix{}, fmt.Errorf("autoscale: no offers")
	}
	if demandPerSec <= 0 {
		return FleetMix{}, fmt.Errorf("autoscale: demand %f", demandPerSec)
	}
	if headroom < 1 {
		headroom = 1
	}
	for _, o := range offers {
		if o.RatePerSec <= 0 || o.DollarsPerHour <= 0 {
			return FleetMix{}, fmt.Errorf("autoscale: offer %q needs positive rate and price", o.Name)
		}
	}
	order := make([]int, len(offers))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea := offers[order[a]].DollarsPerHour / offers[order[a]].RatePerSec
		eb := offers[order[b]].DollarsPerHour / offers[order[b]].RatePerSec
		if ea != eb {
			return ea < eb
		}
		return offers[order[a]].Name < offers[order[b]].Name
	})
	need := demandPerSec * headroom
	mix := FleetMix{Counts: make([]int, len(offers))}
	for _, i := range order {
		if mix.RatePerSec >= need {
			break
		}
		o := offers[i]
		limit := o.Max
		if limit <= 0 {
			limit = 64
		}
		for n := 0; n < limit && mix.RatePerSec < need; n++ {
			mix.Counts[i]++
			mix.RatePerSec += o.RatePerSec
			mix.CostPerHour += o.DollarsPerHour
		}
	}
	if mix.RatePerSec < need {
		return mix, fmt.Errorf("autoscale: offers sustain %.0f req/s, need %.0f", mix.RatePerSec, need)
	}
	return mix, nil
}

// Devices expands the mix into per-replica device configs and prices, in
// offer order — the shape cluster.NewWorldWithConfig and Config
// DollarsPerHour consume.
func (m FleetMix) Devices(offers []Offer) (devs []gpu.Config, dollarsPerHour []float64, names []string) {
	for i, n := range m.Counts {
		for j := 0; j < n; j++ {
			devs = append(devs, offers[i].Dev)
			dollarsPerHour = append(dollarsPerHour, offers[i].DollarsPerHour)
			names = append(names, offers[i].Name)
		}
	}
	return devs, dollarsPerHour, names
}
