package autoscale

// State returns replica i's lifecycle state.
func (s *Scaler) State(i int) ReplicaState { return s.state[i] }

// Events returns the scaling log in emission order.
func (s *Scaler) Events() []Event { return s.events }
