package sched

// EffectiveDeficit returns client's current effective deficit: the stored
// deficit plus the global boost. It is the reference the fairness tests
// check the deficit tree's ordering against.
func (p *PaellaPolicy) EffectiveDeficit(client int) float64 {
	c := p.clients[client]
	if c == nil {
		return 0
	}
	return c.stored + p.boost
}
