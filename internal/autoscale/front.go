package autoscale

import (
	"errors"

	"paella/internal/cluster"
	"paella/internal/core"
	"paella/internal/gateway"
	"paella/internal/sim"
)

// Counts is the Front's conservation ledger: every submitted request must
// end in exactly one of the three terminal columns, however much the fleet
// churned underneath it.
type Counts struct {
	// Submitted counts unique request ids accepted by Submit.
	Submitted int
	// Completed, Shed, and Failed partition the terminal outcomes.
	Completed, Shed, Failed int
}

// Conserved reports the invariant completed + shed + failed == submitted.
func (c Counts) Conserved() bool {
	return c.Completed+c.Shed+c.Failed == c.Submitted
}

// Front is the autoscaling driver's submission path: a cluster connection
// wrapped with terminal-outcome accounting, scaler signal feeds, and the
// retry loop for moments when no replica is routable (mid-drain, or the
// whole pool warming). Use it instead of a bare cluster.Conn so
// conservation holds by construction.
type Front struct {
	s    *Scaler
	conn *cluster.Conn
	// submitAt maps outstanding request ids to their submit stamps (for
	// latency observation; entries are removed at the terminal event).
	submitAt map[uint64]sim.Time
	counts   Counts

	// onFailed, if set, receives each failed or shed request after
	// accounting.
	onFailed func(id uint64, err error)
}

// NewFront connects the scaler's cluster and wires terminal accounting.
func NewFront(s *Scaler) *Front {
	f := &Front{s: s, conn: s.c.Connect(), submitAt: make(map[uint64]sim.Time)}
	f.conn.OnComplete = func(id uint64) { f.terminal(id, nil) }
	f.conn.OnFailed = func(id uint64, err error) { f.terminal(id, err) }
	return f
}

// Submit routes one request, retrying on the control timeline after
// core.RetryBackoff while the pool has no routable replica (the -1
// result). A request is counted submitted exactly once however many
// resubmissions it takes; admission sheds, requests that find no live
// replica and routed requests proceed to their usual terminal events.
func (f *Front) Submit(req core.Request) {
	if _, seen := f.submitAt[req.ID]; !seen {
		f.submitAt[req.ID] = f.s.env.Now()
		f.counts.Submitted++
		f.s.ObserveSubmit()
	}
	if f.conn.Submit(req) == -1 {
		f.s.env.After(core.RetryBackoff, func() { f.Submit(req) })
	}
}

// terminal folds one terminal event into the ledger and the scaler's
// signal feeds, then forwards a failure to onFailed.
func (f *Front) terminal(id uint64, err error) {
	at, ok := f.submitAt[id]
	if !ok {
		return // duplicate terminal (defensive; the Conn already dedups)
	}
	delete(f.submitAt, id)
	latency := f.s.env.Now() - at
	switch {
	case err == nil:
		f.counts.Completed++
		f.s.ObserveTerminal(latency, OutcomeCompleted)
		return
	case errors.Is(err, gateway.ErrTenantShed):
		f.counts.Shed++
		f.s.ObserveTerminal(latency, OutcomeShed)
	default:
		f.counts.Failed++
		f.s.ObserveTerminal(latency, OutcomeFailed)
	}
	if f.onFailed != nil {
		f.onFailed(id, err)
	}
}

// Counts returns the conservation ledger so far.
func (f *Front) Counts() Counts { return f.counts }

// Outstanding returns how many submitted requests have not yet terminated.
func (f *Front) Outstanding() int { return len(f.submitAt) }
