package cluster

// InFlight returns the front's view of outstanding requests.
func (pd *PD) InFlight() int {
	total := 0
	for _, n := range pd.inflight {
		total += n
	}
	return total
}
