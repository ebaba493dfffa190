package sched

import "paella/internal/rbtree"

// PaellaPolicy is the paper's default scheduler (§6): SRPT for latency,
// bounded by per-client deficit counters for fairness.
//
// Conceptually, when a kernel of client c is dispatched, c's deficit
// decreases by (1 − 1/n) while every other active client's deficit
// increases by 1/n (n = number of clients with unfinished jobs). That is an
// O(n) update; the implementation uses the paper's O(1) shift trick:
// dispatching stores deficit[c] −= 1 and adds 1/n to a global boost, so a
// client's effective deficit is stored + boost and relative order among
// stored values is preserved. A periodic O(n) renormalization bounds the
// magnitudes (the paper's "reset on double underflow").
//
// Pick: if the maximum effective deficit exceeds the fairness threshold and
// that client has a runnable job, its oldest job runs; otherwise the SRPT
// minimum runs. Lower thresholds trigger the fairness override sooner
// (Figure 13); as the threshold approaches zero the policy degenerates
// toward oldest-first service.
type PaellaPolicy struct {
	threshold float64
	boost     float64

	srpt    *rbtree.Tree[*JobEntry]
	deficit *rbtree.Tree[*paellaClient] // ordered by stored deficit
	clients map[int]*paellaClient
	// nextSeq numbers clients in first-seen order for the deficit-tree
	// tiebreak. It is per-policy state: a package-level counter would
	// couple independent policy instances (replica dispatchers), so one
	// replica's numbering would depend on the order shards execute in.
	nextSeq uint64
	// detached is batchDispatched's scratch: the client nodes it took out
	// of the deficit tree, reinserted once the whole batch is charged.
	detached []*paellaClient
}

type paellaClient struct {
	stored float64
	// active counts unfinished jobs (admitted, not yet completed).
	active int
	// jobs holds this client's runnable jobs, FIFO by arrival.
	jobs *rbtree.Tree[*JobEntry]
	node *rbtree.Node[*paellaClient]
	seq  uint64 // tiebreak for deterministic ordering
}

// DefaultFairnessThreshold is the paper's default deficit bound for the
// Paella policy, in kernel dispatches of imbalance.
const DefaultFairnessThreshold = 10000

// NewPaella returns the default Paella policy with the given fairness
// threshold, measured in kernel dispatches of imbalance. Higher thresholds
// favour SRPT latency; lower thresholds favour fairness.
func NewPaella(threshold float64) *PaellaPolicy {
	p := &PaellaPolicy{
		threshold: threshold,
		srpt:      rbtree.New(remainingLess),
		clients:   make(map[int]*paellaClient),
	}
	p.deficit = rbtree.New(func(a, b *paellaClient) bool {
		if a.stored != b.stored {
			return a.stored < b.stored
		}
		return a.seq < b.seq
	})
	return p
}

// Name implements Policy.
func (p *PaellaPolicy) Name() string { return "Paella" }

// Len implements Policy.
func (p *PaellaPolicy) Len() int { return p.srpt.Len() }

func (p *PaellaPolicy) client(id int) *paellaClient {
	c, ok := p.clients[id]
	if !ok {
		p.nextSeq++
		c = &paellaClient{
			jobs: rbtree.New(arrivalLess),
			seq:  p.nextSeq,
			// A new client starts level with the field: stored 0 means
			// effective deficit equals the global boost, the same as a
			// client that has been waiting without service.
			stored: 0,
		}
		p.clients[id] = c
	}
	return c
}

// arrivalLess orders a client's jobs oldest first.
func arrivalLess(a, b *JobEntry) bool { return a.Arrival < b.Arrival }

// JobAdmitted implements Policy: the client gains an unfinished job and
// (re)joins the deficit index.
func (p *PaellaPolicy) JobAdmitted(client int) {
	c := p.client(client)
	c.active++
	if c.node == nil {
		c.node = p.deficit.Insert(c)
	}
}

// JobFinished implements Policy: when a client's last job completes it
// leaves the deficit index (and forfeits accumulated deficit — an idle
// client must not hoard priority).
func (p *PaellaPolicy) JobFinished(client int) {
	c := p.clients[client]
	if c == nil || c.active == 0 {
		panic("sched: JobFinished without matching JobAdmitted")
	}
	c.active--
	if c.active == 0 {
		if c.node != nil {
			p.deficit.Delete(c.node)
			c.node = nil
		}
		delete(p.clients, client)
	}
}

// Add implements Policy. A job's detached node handles are reused across
// Remove/Add cycles (one per kernel dispatch), so the steady-state path
// does not allocate.
func (p *PaellaPolicy) Add(j *JobEntry) {
	if j.primary.Attached() || j.secondary.Attached() {
		panic("sched: job added twice to Paella")
	}
	j.primary = insertEntry(p.srpt, j, j.primary)
	j.secondary = insertEntry(p.client(j.Client).jobs, j, j.secondary)
}

// Remove implements Policy. The node handles stay on the JobEntry,
// detached, for reuse by the next Add.
func (p *PaellaPolicy) Remove(j *JobEntry) {
	if !j.primary.Attached() {
		panic("sched: removing job not in Paella")
	}
	p.srpt.Delete(j.primary)
	c := p.clients[j.Client]
	c.jobs.Delete(j.secondary)
}

// Pick implements Policy: fairness override first, SRPT otherwise.
func (p *PaellaPolicy) Pick() *JobEntry {
	if p.srpt.Len() == 0 {
		return nil
	}
	// Scan clients from highest effective deficit down until one with a
	// runnable job is found or the threshold is no longer exceeded.
	for n := p.deficit.Max(); n != nil; n = n.Prev() {
		c := n.Item
		if c.stored+p.boost <= p.threshold {
			break
		}
		if c.jobs.Len() > 0 {
			return c.jobs.Min().Item
		}
	}
	return p.srpt.Min().Item
}

// AppendBatch appends to dst the first n jobs that n rounds of Pick then
// Remove would return, in that order, and removes nothing. It is exact
// because nothing those rounds do moves the deficit tree: every client
// above the threshold yields all its jobs oldest first, in
// deficit-descending order, and once the scan reaches a client at or below
// the threshold the rest come in SRPT order, skipping the jobs of the
// clients already drained.
func (p *PaellaPolicy) AppendBatch(dst []*JobEntry, n int) []*JobEntry {
	if n <= 0 {
		return dst
	}
	want := len(dst) + n
	for cn := p.deficit.Max(); cn != nil; cn = cn.Prev() {
		c := cn.Item
		if c.stored+p.boost <= p.threshold {
			break
		}
		for jn := c.jobs.Min(); jn != nil; jn = jn.Next() {
			dst = append(dst, jn.Item)
			if len(dst) == want {
				return dst
			}
		}
	}
	for jn := p.srpt.Min(); jn != nil; jn = jn.Next() {
		if p.drained(jn.Item.Client) {
			continue
		}
		dst = append(dst, jn.Item)
		if len(dst) == want {
			return dst
		}
	}
	return dst
}

// drained reports whether AppendBatch's fairness phase took every job of
// client: the client is in the deficit tree above the threshold, the same
// test Pick's scan applies.
func (p *PaellaPolicy) drained(client int) bool {
	c := p.clients[client]
	return c.node != nil && c.stored+p.boost > p.threshold
}

// Requeue is Remove(j) followed by Add(j), for a job whose Remaining has
// changed while it sat in the policy; every other job must still sit where
// its own key puts it, so change one key and Requeue it before the next.
// In each tree it leaves the node in place when that is exactly where the
// reinsert would put it: after every node that does not sort above j and
// before every node that does, which the tree's equal-keys-go-right
// insertion makes the last slot among j's ties. Otherwise it deletes and
// reinserts the node.
func (p *PaellaPolicy) Requeue(j *JobEntry) {
	if !j.primary.Attached() {
		panic("sched: requeueing job not in Paella")
	}
	if !inPlace(j.primary, remainingLess) {
		p.srpt.Delete(j.primary)
		p.srpt.InsertNode(j.primary)
	}
	if !inPlace(j.secondary, arrivalLess) {
		jobs := p.clients[j.Client].jobs
		jobs.Delete(j.secondary)
		jobs.InsertNode(j.secondary)
	}
}

// inPlace reports whether n already sits where deleting and reinserting
// it into its tree, ordered by less, would put it.
func inPlace(n *rbtree.Node[*JobEntry], less func(a, b *JobEntry) bool) bool {
	prev, next := n.Prev(), n.Next()
	return (prev == nil || !less(n.Item, prev.Item)) && (next == nil || less(n.Item, next.Item))
}

// PickFit implements Policy: the fairness override considers only the
// most-starved client's oldest fitting job; otherwise jobs are scanned in
// SRPT order.
func (p *PaellaPolicy) PickFit(fits func(*JobEntry) bool, maxScan int) *JobEntry {
	if p.srpt.Len() == 0 {
		return nil
	}
	scanned := 0
	for n := p.deficit.Max(); n != nil && scanned < maxScan; n = n.Prev() {
		c := n.Item
		if c.stored+p.boost <= p.threshold {
			break
		}
		for jn := c.jobs.Min(); jn != nil && scanned < maxScan; jn = jn.Next() {
			if fits(jn.Item) {
				return jn.Item
			}
			scanned++
		}
	}
	for n := p.srpt.Min(); n != nil && scanned < maxScan; n = n.Next() {
		if fits(n.Item) {
			return n.Item
		}
		scanned++
	}
	return nil
}

// Dispatched implements Policy: the deficit bookkeeping of §6.
func (p *PaellaPolicy) Dispatched(j *JobEntry) {
	c := p.clients[j.Client]
	if c == nil {
		panic("sched: Dispatched for unknown client")
	}
	n := len(p.clients)
	if n == 0 {
		return
	}
	// stored -= 1, everyone += 1/n  ⇔  c loses (1 − 1/n), others gain 1/n.
	// The node handle is reused across the delete/reinsert (InsertNode), so
	// the per-dispatch hot path does not allocate.
	reposition := c.node != nil
	if reposition {
		p.deficit.Delete(c.node)
	}
	c.stored--
	if reposition {
		p.deficit.InsertNode(c.node)
	}
	p.boost += 1 / float64(n)
	p.renormalize()
}

// renormalize folds the boost into every stored deficit before
// floating-point magnitudes degrade (the paper's O(n) reset).
func (p *PaellaPolicy) renormalize() {
	if p.boost > 1e9 {
		for _, cc := range p.clients {
			cc.stored += p.boost
		}
		// Stored-order is unchanged by a uniform shift; the tree remains
		// valid.
		p.boost = 0
	}
}

// batchDispatched is one Dispatched per member, in order, with each
// member client's deficit node taken out of the tree before that client's
// first charge and put back once after the last. The stored values, the
// boost and every renormalization are the same float operations in the
// same order as the per-member calls; a node still in the tree only sees
// renormalization's uniform shift, which keeps the order; and since
// (stored, seq) is a strict total order, the reinsertion order cannot
// change the tree's in-order.
func (p *PaellaPolicy) batchDispatched(members []*JobEntry) {
	detached := p.detached[:0]
	n := float64(len(p.clients))
	for _, j := range members {
		c := p.clients[j.Client]
		if c == nil {
			panic("sched: Dispatched for unknown client")
		}
		if c.node.Attached() {
			p.deficit.Delete(c.node)
			detached = append(detached, c)
		}
		c.stored--
		p.boost += 1 / n
		p.renormalize()
	}
	for _, c := range detached {
		p.deficit.InsertNode(c.node)
	}
	clear(detached)
	p.detached = detached[:0]
}
