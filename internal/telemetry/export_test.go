package telemetry

// Series returns the flushed rows of the named instrument (nil when the
// name is unknown or the meter is nil). Flush first for complete data.
func (m *Meter) Series(name string) []Row {
	if m == nil {
		return nil
	}
	for i := range m.instruments {
		if m.instruments[i].name == name {
			return m.instruments[i].rows
		}
	}
	return nil
}
