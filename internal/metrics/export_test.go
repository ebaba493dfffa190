package metrics

// Preemptions totals KV-pressure preemptions across all records.
func (c *Collector) Preemptions() int {
	n := 0
	c.each(func(r JobRecord) { n += r.Preemptions })
	return n
}
