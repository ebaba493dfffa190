// Package sched implements the kernel-granularity scheduling policies of
// §6 of the paper. The Paella dispatcher consults a Policy each time the
// GPU has room for more work: the policy picks the job whose next kernel
// should be dispatched. Dispatching removes the job from the policy's
// indexes; the dispatcher re-adds it (with an updated remaining-time
// estimate) once the job's next kernel becomes ready.
//
// Available policies:
//
//   - FIFO: oldest job first (what the hardware effectively provides).
//   - SJF: shortest total estimated execution time first.
//   - SRPT: shortest *remaining* estimated time first.
//   - RR: round-robin across clients, FIFO within a client.
//   - Paella (default): SRPT bounded by per-client deficit counters — if
//     any client's deficit exceeds a configurable fairness threshold, the
//     oldest job of the most-starved client runs instead (§6's mix of SRPT
//     and deficit-based priority scheduling, after Shreedhar & Varghese's
//     deficit round-robin).
package sched

import (
	"paella/internal/rbtree"
	"paella/internal/sim"
)

// JobEntry is the scheduler's view of one inference job.
type JobEntry struct {
	// ID is the dispatcher-assigned request id.
	ID uint64
	// Client identifies the submitting client (the fairness principal).
	Client int
	// Arrival is when the request reached the dispatcher.
	Arrival sim.Time
	// Total is the profiled execution-time estimate of the whole job
	// (fixed at admission; used by SJF).
	Total sim.Time
	// Remaining is the current remaining-time estimate (updated by the
	// dispatcher before every re-Add; used by SRPT and Paella).
	Remaining sim.Time
	// Deadline is the absolute completion deadline, if any (zero = none).
	// Used by the EDF policy; hardware schedulers have no equivalent
	// (§2.1's "ignorance of application metrics").
	Deadline sim.Time
	// Warm reports whether the job's model weights are resident in device
	// memory (internal/vram). Policies use it as a tiebreak: on equal
	// primary keys a warm job dispatches first, since a cold one waits
	// behind a weight load regardless. Always false when the residency
	// subsystem is disabled, making the tiebreak inert.
	Warm bool
	// Payload lets the dispatcher attach its job state to the entry.
	Payload any

	// policy-internal index handles
	primary   *rbtree.Node[*JobEntry]
	secondary *rbtree.Node[*JobEntry]
}

// Policy picks which runnable job's next kernel to dispatch.
type Policy interface {
	// Name returns the policy's short name (matching Table 3 labels).
	Name() string
	// Add makes a job visible to the picker. A job must not be added
	// twice without an intervening Remove.
	Add(j *JobEntry)
	// Remove hides a job from the picker (its next kernel was dispatched,
	// or it finished while queued).
	Remove(j *JobEntry)
	// Pick returns the job to run next, or nil. It does not mutate state.
	Pick() *JobEntry
	// PickFit returns the best job (in policy order) whose next kernel
	// currently fits the device, per the fits predicate, scanning at most
	// maxScan candidates. It returns nil if none of the scanned candidates
	// fit. Work conservation: without this, one unplaceable large kernel
	// at the head of the policy order would idle the GPU — the same
	// head-of-line pathology Paella exists to avoid, recreated in
	// software. PickFit must only read state: the dispatcher skips the
	// call whenever its occupancy mirror rules out every kernel.
	PickFit(fits func(*JobEntry) bool, maxScan int) *JobEntry
	// Dispatched informs the policy that one kernel of j was dispatched
	// (fairness accounting).
	Dispatched(j *JobEntry)
	// JobAdmitted and JobFinished bracket a job's lifetime in the system
	// (admission to final completion), independent of Add/Remove cycles.
	JobAdmitted(client int)
	JobFinished(client int)
	// Len returns the number of currently runnable jobs.
	Len() int
}

// BatchRemaining returns the SRPT remaining-work key of a batched
// dispatch: the maximum over the members' remaining estimates. A batched
// kernel launch finishes when its slowest member's work does, so the batch
// inherits the pessimistic member's position in the SRPT order — batching
// must never let a long job tunnel ahead of shorter ones by hiding inside
// a batch of short jobs (§6's SRPT semantics applied at batch
// granularity).
func BatchRemaining(members []*JobEntry) sim.Time {
	var max sim.Time
	for _, e := range members {
		if e.Remaining > max {
			max = e.Remaining
		}
	}
	return max
}

// BatchDispatched charges one batched kernel dispatch to every member's
// client: each member consumed device capacity, so each member's client
// pays the §6 deficit bookkeeping — a client cannot launder service past
// the fairness threshold by riding other clients' batches. On a
// *PaellaPolicy it charges the whole batch with one deficit-tree
// reposition per member client rather than one per member.
func BatchDispatched(p Policy, members []*JobEntry) {
	if pp, ok := p.(*PaellaPolicy); ok {
		pp.batchDispatched(members)
		return
	}
	for _, e := range members {
		p.Dispatched(e)
	}
}

// nopLifecycle provides no-op lifecycle hooks for policies that do not
// track clients.
type nopLifecycle struct{}

func (nopLifecycle) Dispatched(*JobEntry) {}
func (nopLifecycle) JobAdmitted(int)      {}
func (nopLifecycle) JobFinished(int)      {}

// treePolicy is a single-rbtree policy parameterized by its ordering key.
type treePolicy struct {
	nopLifecycle
	name string
	tree *rbtree.Tree[*JobEntry]
}

func newTreePolicy(name string, less func(a, b *JobEntry) bool) *treePolicy {
	return &treePolicy{name: name, tree: rbtree.New(less)}
}

func (p *treePolicy) Name() string { return p.name }
func (p *treePolicy) Len() int     { return p.tree.Len() }

func (p *treePolicy) Add(j *JobEntry) {
	if j.primary.Attached() {
		panic("sched: job added twice to " + p.name)
	}
	j.primary = insertEntry(p.tree, j, j.primary)
}

func (p *treePolicy) Remove(j *JobEntry) {
	if !j.primary.Attached() {
		panic("sched: removing job not in " + p.name)
	}
	p.tree.Delete(j.primary)
}

// insertEntry inserts j, reusing a detached node handle from a previous
// Remove when one exists — jobs re-enter their policy once per kernel
// dispatch, and handle reuse keeps that hot path allocation-free.
func insertEntry(t *rbtree.Tree[*JobEntry], j *JobEntry, h *rbtree.Node[*JobEntry]) *rbtree.Node[*JobEntry] {
	if h == nil {
		return t.Insert(j)
	}
	t.InsertNode(h)
	return h
}

func (p *treePolicy) Pick() *JobEntry {
	n := p.tree.Min()
	if n == nil {
		return nil
	}
	return n.Item
}

func (p *treePolicy) PickFit(fits func(*JobEntry) bool, maxScan int) *JobEntry {
	scanned := 0
	for n := p.tree.Min(); n != nil && scanned < maxScan; n = n.Next() {
		if fits(n.Item) {
			return n.Item
		}
		scanned++
	}
	return nil
}

// warmFirst breaks a primary-key tie in favour of the job whose weights
// are device-resident. Returning (false, false) when both sides agree
// preserves the pre-residency insertion order, so policies behave exactly
// as before whenever the vram subsystem is off.
func warmFirst(a, b *JobEntry) (less, decided bool) {
	if a.Warm != b.Warm {
		return a.Warm, true
	}
	return false, false
}

// NewFIFO returns first-in-first-out scheduling (oldest arrival first).
func NewFIFO() Policy {
	return newTreePolicy("FIFO", func(a, b *JobEntry) bool {
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		less, ok := warmFirst(a, b)
		return ok && less
	})
}

// NewSJF returns shortest-job-first scheduling by total profiled time.
func NewSJF() Policy {
	return newTreePolicy("SJF", func(a, b *JobEntry) bool {
		if a.Total != b.Total {
			return a.Total < b.Total
		}
		less, ok := warmFirst(a, b)
		return ok && less
	})
}

// NewSRPT returns shortest-remaining-processing-time scheduling.
func NewSRPT() Policy { return newTreePolicy("SRPT", remainingLess) }

// remainingLess is the SRPT order: least remaining work first, warm first
// on a tie.
func remainingLess(a, b *JobEntry) bool {
	if a.Remaining != b.Remaining {
		return a.Remaining < b.Remaining
	}
	less, ok := warmFirst(a, b)
	return ok && less
}

// NewEDF returns earliest-deadline-first scheduling. Jobs without a
// deadline (zero) sort after all deadlined jobs, FIFO among themselves.
func NewEDF() Policy {
	return newTreePolicy("EDF", func(a, b *JobEntry) bool {
		da, db := a.Deadline, b.Deadline
		if da == 0 {
			da = 1<<63 - 1
		}
		if db == 0 {
			db = 1<<63 - 1
		}
		if da != db {
			return da < db
		}
		if less, ok := warmFirst(a, b); ok {
			return less
		}
		return a.Arrival < b.Arrival
	})
}
