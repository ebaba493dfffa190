package autoscale

// State returns replica i's lifecycle state.
func (s *Scaler) State(i int) ReplicaState { return s.state[i] }

// Events returns the scaling log in emission order.
func (s *Scaler) Events() []Event { return s.events }

// OnFailed makes fn receive each failed or shed request after accounting,
// including failures that originate at the Front itself.
func (f *Front) OnFailed(fn func(id uint64, err error)) { f.onFailed = fn }
