package core

// Idle reports whether the mirror believes the device is empty: the
// drain check the dispatcher tests end on.
func (m *mirror) Idle() bool {
	return m.resBlocks == 0 && m.rsvBlocks == 0
}
