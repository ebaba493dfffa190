package gpu

import "fmt"

// SplitMIG slices a device configuration into static Multi-Instance GPU
// partitions (§8 of the paper: "for known, static partitions, Paella's
// techniques apply directly"). Each fraction is expressed in SMs; the
// hardware queues are divided proportionally (at least one per partition).
// Each returned Config describes an isolated virtual GPU: in the
// simulation, separate Devices built from these configs share nothing,
// matching MIG's strong isolation guarantees.
func SplitMIG(cfg Config, smsPerPart []int) ([]Config, error) {
	if len(smsPerPart) == 0 {
		return nil, fmt.Errorf("gpu: SplitMIG with no partitions")
	}
	total := 0
	for i, n := range smsPerPart {
		if n <= 0 {
			return nil, fmt.Errorf("gpu: partition %d has %d SMs", i, n)
		}
		total += n
	}
	if total > cfg.NumSMs {
		return nil, fmt.Errorf("gpu: partitions need %d SMs, device has %d", total, cfg.NumSMs)
	}
	out := make([]Config, len(smsPerPart))
	for i, n := range smsPerPart {
		part := cfg
		part.Name = fmt.Sprintf("%s/MIG-%d (%dsm)", cfg.Name, i, n)
		part.NumSMs = n
		queues := cfg.EffectiveQueues() * n / cfg.NumSMs
		if queues < 1 {
			queues = 1
		}
		part.NumHWQueues = queues
		out[i] = part
	}
	return out, nil
}
