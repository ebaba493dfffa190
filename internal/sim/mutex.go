package sim

// Mutex serializes simulation processes, modelling a host-side lock such
// as the CUDA driver's per-context submission lock. FIFO fairness: waiters
// acquire in arrival order.
type Mutex struct {
	env     *Env
	held    bool
	waiters []func()
	// first is the dequeue cursor; popping moves it instead of reslicing so
	// the waiter array's capacity is retained (no per-handoff allocation).
	first int
}

// NewMutex returns an unlocked mutex bound to e.
func NewMutex(e *Env) *Mutex { return &Mutex{env: e} }

// Lock blocks the process until it holds the mutex.
func (m *Mutex) Lock(p *Proc) {
	if !m.held {
		m.held = true
		return
	}
	m.waiters = append(m.waiters, p.dispatchFn)
	p.park()
}

// Unlock releases the mutex, handing it to the oldest waiter (if any) at
// the current virtual time. Unlocking an unheld mutex panics.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("sim: unlock of unheld mutex")
	}
	if m.first == len(m.waiters) {
		m.held = false
		m.waiters, m.first = m.waiters[:0], 0
		return
	}
	next := m.waiters[m.first]
	m.waiters[m.first] = nil
	m.first++
	if m.first == len(m.waiters) {
		m.waiters, m.first = m.waiters[:0], 0
	}
	// Ownership transfers directly; the waiter resumes as a fresh event.
	m.env.After(0, next)
}
