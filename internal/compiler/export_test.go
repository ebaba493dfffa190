package compiler

import "paella/internal/sim"

// RemainingByFormula evaluates the paper's §6 estimate directly:
// Σᵢ max(0, C̄ᵢ − cᵢ)·T̄ᵢ given per-kernel executed counts. It is the
// reference the tests check the suffix table against.
func (p *Profile) RemainingByFormula(executedCounts map[string]int) sim.Time {
	var total sim.Time
	for name, st := range p.stats {
		rem := st.Count - float64(executedCounts[name])
		if rem > 0 {
			total += sim.Time(rem * float64(st.MeanTime))
		}
	}
	return total
}
