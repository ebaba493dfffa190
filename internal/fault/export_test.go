package fault

// Applied returns how many events of each kind took effect.
func (in *Injector) Applied() map[Kind]int { return in.applied }

// Skipped returns how many events found no target.
func (in *Injector) Skipped() map[Kind]int { return in.skipped }
