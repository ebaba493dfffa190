// Package metrics collects per-request latency records and computes the
// aggregate statistics the paper reports: percentile job completion times,
// throughput/goodput, time-to-first-token and per-token latency for
// generative serving, and client CPU utilization (Figure 14).
//
// A Collector stores each record as one compact varint entry in
// append-only 64 KiB blocks, so a long run's record store never regrows
// or copies and costs tens of bytes per record (DESIGN.md §14.3). Records
// are written during the run and read after it: the aggregate methods
// decode the entries in one pass, and Records builds one contiguous view
// on demand.
package metrics

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"

	"paella/internal/sim"
)

// JobRecord captures the full timeline of one inference request.
type JobRecord struct {
	ID     uint64
	Model  string
	Client int
	// Tenant identifies the workload owner for multi-tenant QoS accounting
	// (gateway admission control, per-tenant latency slices). Empty for
	// untenanted traffic.
	Tenant string

	// Submit is when the client called predict.
	Submit sim.Time
	// Admit is when the serving system accepted the request.
	Admit sim.Time
	// FirstDispatch is when the first GPU operation was released.
	FirstDispatch sim.Time
	// ExecDone is when the last GPU operation finished.
	ExecDone sim.Time
	// Delivered is when the client observed the result.
	Delivered sim.Time

	// SchedNs accumulates dispatcher queuing/scheduling time charged to
	// this request (admission queueing + per-kernel scheduling decisions).
	SchedNs sim.Time
	// FrameworkNs accumulates serving-framework processing (serialization,
	// batching, RPC handling) charged to this request.
	FrameworkNs sim.Time
	// ColdStart marks a request that arrived while its model's weights were
	// not resident in device memory (internal/vram) and had to wait for a
	// H2D weight load.
	ColdStart bool
	// LoadNs is the time this request spent blocked on weight loading —
	// from admission until its model became resident. Zero for warm hits.
	LoadNs sim.Time
	// BatchSize is the widest batched kernel launch this request rode
	// (core dynamic batching); zero for a request that was never batched,
	// so the field is inert — and its JSON omitted — when batching is off.
	BatchSize int
	// BatchWaitNs accumulates time the request spent held by the
	// dispatcher's batch-formation window (the latency cost of batching,
	// attributed per member).
	BatchWaitNs sim.Time
	// HoLNs accumulates head-of-line dispatch gap: time a kernel was ready
	// (admitted to the scheduling policy) but not yet released to the GPU,
	// after the request's first dispatch. This is exactly the delay Paella's
	// software-defined scheduling exists to eliminate — hardware-queue
	// systems hide it inside ExecDone-FirstDispatch.
	HoLNs sim.Time
	// StallNs accumulates KV-pressure stall time in generative serving: the
	// wait from a paging preemption until the recompute prefill was
	// launched. The recompute pass itself is charged to PrefillNs.
	StallNs sim.Time
	// PrefillNs accumulates generative prefill execution time (initial pass
	// plus any preemption recomputes). Zero for non-generative jobs.
	PrefillNs sim.Time
	// FirstToken is when the request's first output token completed — the
	// end of the TTFT window (internal/llm's generative serving; zero for
	// non-generative jobs and for requests that never produced a token).
	FirstToken sim.Time
	// PromptTokens and OutputTokens are the generative job's lengths: the
	// prefill input and the tokens actually produced. Zero for
	// non-generative jobs, so the fields (and their JSON) are inert.
	PromptTokens int
	OutputTokens int
	// Preemptions counts how many times the request's KV pages were evicted
	// under memory pressure and its prefill recomputed.
	Preemptions int
	// KVTransferNs accumulates time spent moving the request's KV-cache
	// between prefill and decode replicas (P/D disaggregation).
	KVTransferNs sim.Time
	// Cancelled marks a request aborted by the client before completion.
	Cancelled bool
	// Failed marks a request that terminated with a typed error instead of
	// a result (admission shed, kernel timeout after retries, weight-load
	// failure, client disconnect, replica crash). Failed records still count
	// toward conservation — every admitted request produces exactly one
	// record — but are excluded from success-side statistics via Succeeded.
	Failed bool
	// FailureReason is the typed error's stable string (empty on success).
	FailureReason string
}

// JCT returns the end-to-end job completion time.
func (r *JobRecord) JCT() sim.Time { return r.Delivered - r.Submit }

// TTFT returns the time-to-first-token: submit to first output token. Zero
// when the request never produced a token (non-generative jobs, failures
// before the first decode iteration).
func (r *JobRecord) TTFT() sim.Time {
	if r.FirstToken == 0 {
		return 0
	}
	return r.FirstToken - r.Submit
}

// TPOT returns the mean time-per-output-token over the decode phase: the
// span from the first to the last token divided by the intervals between
// them. Zero for requests with fewer than two output tokens (which
// includes every non-generative record). Clamped at zero: a record that
// failed between its first token and its last has no meaningful decode
// span, not a negative one.
func (r *JobRecord) TPOT() sim.Time {
	if r.OutputTokens < 2 || r.FirstToken == 0 {
		return 0
	}
	t := (r.ExecDone - r.FirstToken) / sim.Time(r.OutputTokens-1)
	if t < 0 {
		return 0
	}
	return t
}

// CommNs returns the pure communication latency: submit→admit plus
// completion→delivery, net of framework processing. Clamped at zero — a
// system whose framework time covers the whole channel crossing (e.g. RPC
// serialization measured end to end) has no residual communication cost,
// not a negative one. Failed records that never reached execution carry
// ExecDone stamped at failure time, so the completion→delivery term stays
// the delivery crossing rather than swallowing the whole queue wait.
func (r *JobRecord) CommNs() sim.Time {
	c := (r.Admit - r.Submit) + (r.Delivered - r.ExecDone) - r.FrameworkNs
	if c < 0 {
		return 0
	}
	return c
}

// blockSize is the size of one storage block, header included, so a
// block is exactly one 64 KiB allocation.
const blockSize = 64 << 10

// valued is how many fields an entry can store after its mask: fID
// through fFailureReason.
const valued = 23

// maxEntry bounds one encoded entry: a presence mask and the valued
// fields, each a varint of at most binary.MaxVarintLen64 bytes. Add opens
// a fresh block when fewer than maxEntry bytes remain, so an entry never
// spans blocks.
const maxEntry = (1 + valued) * binary.MaxVarintLen64

// Presence bits of an entry's mask, in the order the fields follow it.
// The three bools live in the mask alone.
const (
	fID uint64 = 1 << iota
	fModel
	fClient
	fTenant
	fSubmit
	fAdmit
	fFirstDispatch
	fExecDone
	fDelivered
	fSchedNs
	fFrameworkNs
	fLoadNs
	fBatchSize
	fBatchWaitNs
	fHoLNs
	fStallNs
	fPrefillNs
	fFirstToken
	fPromptTokens
	fOutputTokens
	fPreemptions
	fKVTransferNs
	fFailureReason
	fColdStart
	fCancelled
	fFailed
)

// block is one fixed run of encoded entries in Add order. buf leaves 16
// bytes for n and next, so a block is blockSize bytes in all.
type block struct {
	buf  [blockSize - 16]byte
	n    int
	next *block
}

// Collector accumulates job records for one run. Each record is stored as
// one compact entry in append-only 64 KiB blocks (DESIGN.md §14.3): a
// presence mask, then only the non-zero fields as zigzag varints. ID and
// Submit are deltas from the previous entry, the other timestamps offsets
// from Submit, and strings indices into the collector's string table. A
// block is written once and never regrown, copied or replaced. The
// aggregate methods decode the entries in one pass; Records builds a
// contiguous view only when a caller asks for one. Read records after the
// run.
type Collector struct {
	head, tail *block
	n          int
	// id and submit are the last entry's ID and Submit, the bases of the
	// next entry's deltas.
	id     uint64
	submit sim.Time
	// strs is the string table that entries index into; ids maps a
	// string back to its index.
	strs []string
	ids  map[string]int64
	// view is Records' contiguous slice, built on demand and dropped by
	// the next Add.
	view []JobRecord
}

// NewCollector returns an empty collector. It allocates no block and no
// string table: the first Add does.
func NewCollector() *Collector { return &Collector{} }

// entry is one record's encoding under construction: the presence mask and
// the present fields' varints, in mask order.
type entry struct {
	mask uint64
	n    int
	buf  [valued * binary.MaxVarintLen64]byte
}

// put stores v under bit when present is true.
func (e *entry) put(bit uint64, present bool, v int64) {
	if present {
		e.mask |= bit
		e.n += binary.PutVarint(e.buf[e.n:], v)
	}
}

// flag sets bit when on is true.
func (e *entry) flag(bit uint64, on bool) {
	if on {
		e.mask |= bit
	}
}

// Add appends one completed job.
func (c *Collector) Add(r JobRecord) {
	var e entry
	e.put(fID, r.ID != 0, int64(r.ID-c.id))
	e.put(fModel, r.Model != "", c.intern(r.Model))
	e.put(fClient, r.Client != 0, int64(r.Client))
	e.put(fTenant, r.Tenant != "", c.intern(r.Tenant))
	e.put(fSubmit, r.Submit != 0, int64(r.Submit-c.submit))
	e.put(fAdmit, r.Admit != 0, int64(r.Admit-r.Submit))
	e.put(fFirstDispatch, r.FirstDispatch != 0, int64(r.FirstDispatch-r.Submit))
	e.put(fExecDone, r.ExecDone != 0, int64(r.ExecDone-r.Submit))
	e.put(fDelivered, r.Delivered != 0, int64(r.Delivered-r.Submit))
	e.put(fSchedNs, r.SchedNs != 0, int64(r.SchedNs))
	e.put(fFrameworkNs, r.FrameworkNs != 0, int64(r.FrameworkNs))
	e.put(fLoadNs, r.LoadNs != 0, int64(r.LoadNs))
	e.put(fBatchSize, r.BatchSize != 0, int64(r.BatchSize))
	e.put(fBatchWaitNs, r.BatchWaitNs != 0, int64(r.BatchWaitNs))
	e.put(fHoLNs, r.HoLNs != 0, int64(r.HoLNs))
	e.put(fStallNs, r.StallNs != 0, int64(r.StallNs))
	e.put(fPrefillNs, r.PrefillNs != 0, int64(r.PrefillNs))
	e.put(fFirstToken, r.FirstToken != 0, int64(r.FirstToken-r.Submit))
	e.put(fPromptTokens, r.PromptTokens != 0, int64(r.PromptTokens))
	e.put(fOutputTokens, r.OutputTokens != 0, int64(r.OutputTokens))
	e.put(fPreemptions, r.Preemptions != 0, int64(r.Preemptions))
	e.put(fKVTransferNs, r.KVTransferNs != 0, int64(r.KVTransferNs))
	e.put(fFailureReason, r.FailureReason != "", c.intern(r.FailureReason))
	e.flag(fColdStart, r.ColdStart)
	e.flag(fCancelled, r.Cancelled)
	e.flag(fFailed, r.Failed)
	c.id, c.submit = r.ID, r.Submit

	if c.tail == nil || len(c.tail.buf)-c.tail.n < maxEntry {
		b := new(block)
		if c.tail == nil {
			c.head = b
		} else {
			c.tail.next = b
		}
		c.tail = b
	}
	t := c.tail
	t.n += binary.PutUvarint(t.buf[t.n:], e.mask)
	t.n += copy(t.buf[t.n:], e.buf[:e.n])
	c.n++
	c.view = nil
}

// intern returns s's index in the string table, adding it on first sight.
// The empty string is never stored: its field is absent from the entry.
func (c *Collector) intern(s string) int64 {
	if s == "" {
		return 0
	}
	i, ok := c.ids[s]
	if !ok {
		if c.ids == nil {
			c.ids = map[string]int64{}
		}
		i = int64(len(c.strs))
		c.strs = append(c.strs, s)
		c.ids[s] = i
	}
	return i
}

// decoder reads entries back in Add order, tracking the delta bases.
type decoder struct {
	b      []byte
	strs   []string
	id     uint64
	submit sim.Time
}

// uvarint splits one uvarint off the front of b. Entries are only ever
// written by Add, so b is never malformed.
func uvarint(b []byte) (uint64, []byte) {
	var u uint64
	for s := uint(0); ; s += 7 {
		c := b[0]
		b = b[1:]
		u |= uint64(c&0x7f) << s
		if c < 0x80 {
			return u, b
		}
	}
}

// next decodes the entry at the front of d.b into r, overwriting every
// field.
func (d *decoder) next(r *JobRecord) {
	m, b := uvarint(d.b)
	// v holds the valued fields' stored integers in mask order, zero
	// where absent.
	var v [valued]int64
	for left := m & (1<<valued - 1); left != 0; left &= left - 1 {
		var u uint64
		u, b = uvarint(b)
		v[bits.TrailingZeros64(left)] = int64(u>>1) ^ -int64(u&1)
	}
	d.b = b
	str := func(bit uint64, i int64) string {
		if m&bit == 0 {
			return ""
		}
		return d.strs[i]
	}
	at := func(bit uint64, base sim.Time, i int64) sim.Time {
		if m&bit == 0 {
			return 0
		}
		return base + sim.Time(i)
	}
	r.ID = uint64(at(fID, sim.Time(d.id), v[0]))
	r.Model = str(fModel, v[1])
	r.Client = int(v[2])
	r.Tenant = str(fTenant, v[3])
	r.Submit = at(fSubmit, d.submit, v[4])
	r.Admit = at(fAdmit, r.Submit, v[5])
	r.FirstDispatch = at(fFirstDispatch, r.Submit, v[6])
	r.ExecDone = at(fExecDone, r.Submit, v[7])
	r.Delivered = at(fDelivered, r.Submit, v[8])
	r.SchedNs = sim.Time(v[9])
	r.FrameworkNs = sim.Time(v[10])
	r.LoadNs = sim.Time(v[11])
	r.BatchSize = int(v[12])
	r.BatchWaitNs = sim.Time(v[13])
	r.HoLNs = sim.Time(v[14])
	r.StallNs = sim.Time(v[15])
	r.PrefillNs = sim.Time(v[16])
	r.FirstToken = at(fFirstToken, r.Submit, v[17])
	r.PromptTokens = int(v[18])
	r.OutputTokens = int(v[19])
	r.Preemptions = int(v[20])
	r.KVTransferNs = sim.Time(v[21])
	r.FailureReason = str(fFailureReason, v[22])
	r.ColdStart = m&fColdStart != 0
	r.Cancelled = m&fCancelled != 0
	r.Failed = m&fFailed != 0
	d.id, d.submit = r.ID, r.Submit
}

// Len returns the number of records.
func (c *Collector) Len() int { return c.n }

// Records returns every record in Add order as one contiguous slice;
// callers must not mutate it. The slice is decoded on the first call
// after an Add and shared by later calls until the next Add. A returned
// slice keeps its contents when records are added later. It is meant for
// reading after the run: calling it between Adds decodes the store each
// time.
func (c *Collector) Records() []JobRecord {
	if c.view != nil || c.n == 0 {
		return c.view
	}
	c.view = make([]JobRecord, 0, c.n)
	c.each(func(r JobRecord) { c.view = append(c.view, r) })
	return c.view
}

// AddAll appends every record of src, in order, without building src's
// Records view. src must not be c.
func (c *Collector) AddAll(src *Collector) {
	src.each(c.Add)
}

// each calls fn on every record in Add order. It decodes into one reused
// record and allocates nothing.
func (c *Collector) each(fn func(r JobRecord)) {
	var r JobRecord
	d := decoder{strs: c.strs}
	for b := c.head; b != nil; b = b.next {
		for d.b = b.buf[:b.n]; len(d.b) > 0; {
			d.next(&r)
			fn(r)
		}
	}
}

// filter returns a collector holding the records keep accepts, in order.
func (c *Collector) filter(keep func(r *JobRecord) bool) *Collector {
	out := NewCollector()
	c.each(func(r JobRecord) {
		if keep(&r) {
			out.Add(r)
		}
	})
	return out
}

// count returns how many records match.
func (c *Collector) count(match func(r *JobRecord) bool) int {
	n := 0
	c.each(func(r JobRecord) {
		if match(&r) {
			n++
		}
	})
	return n
}

// perSecond divides n by the run's span in virtual seconds, from the
// earliest submit to the latest delivery over every record; zero for an
// empty collector or an empty span.
func (c *Collector) perSecond(n int) float64 {
	if c.n == 0 {
		return 0
	}
	first, last := sim.Time(math.MaxInt64), sim.Time(math.MinInt64)
	c.each(func(r JobRecord) {
		first = min(first, r.Submit)
		last = max(last, r.Delivered)
	})
	span := (last - first).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(n) / span
}

// JCTs returns all job completion times.
func (c *Collector) JCTs() []sim.Time {
	out := make([]sim.Time, 0, c.n)
	c.each(func(r JobRecord) { out = append(out, r.JCT()) })
	return out
}

// FilterModel returns a collector restricted to one model.
func (c *Collector) FilterModel(name string) *Collector {
	return c.filter(func(r *JobRecord) bool { return r.Model == name })
}

// FilterTenant returns a collector restricted to one tenant.
func (c *Collector) FilterTenant(tenant string) *Collector {
	return c.filter(func(r *JobRecord) bool { return r.Tenant == tenant })
}

// Tenants returns the distinct tenant names present, sorted; untenanted
// records (empty tenant) are excluded.
func (c *Collector) Tenants() []string {
	seen := map[string]bool{}
	var out []string
	c.each(func(r JobRecord) {
		if r.Tenant != "" && !seen[r.Tenant] {
			seen[r.Tenant] = true
			out = append(out, r.Tenant)
		}
	})
	sort.Strings(out)
	return out
}

// Failures returns how many records terminated with a typed error.
func (c *Collector) Failures() int {
	return c.count(func(r *JobRecord) bool { return r.Failed })
}

// FailuresByReason returns failure counts keyed by FailureReason.
func (c *Collector) FailuresByReason() map[string]int {
	out := map[string]int{}
	c.each(func(r JobRecord) {
		if r.Failed {
			out[r.FailureReason]++
		}
	})
	return out
}

// Succeeded returns a collector restricted to successful (non-failed,
// non-cancelled) records — the population goodput and latency percentiles
// are computed over under fault injection.
func (c *Collector) Succeeded() *Collector {
	return c.filter(func(r *JobRecord) bool { return !r.Failed && !r.Cancelled })
}

// ColdStarts returns how many completed jobs waited on a weight load.
func (c *Collector) ColdStarts() int {
	return c.count(func(r *JobRecord) bool { return r.ColdStart })
}

// WarmHitRatio returns the fraction of completed jobs whose model was
// already resident at admission (1.0 when no job ever cold-started).
func (c *Collector) WarmHitRatio() float64 {
	if c.n == 0 {
		return 0
	}
	return 1 - float64(c.ColdStarts())/float64(c.n)
}

// MeanLoadNs returns the mean weight-load wait across all completed jobs
// (cold and warm) — the average cold-start contribution to JCT.
func (c *Collector) MeanLoadNs() sim.Time {
	if c.n == 0 {
		return 0
	}
	var total sim.Time
	c.each(func(r JobRecord) { total += r.LoadNs })
	return total / sim.Time(c.n)
}

// MeanBatchSize returns the mean widest-batch size over batched records
// (BatchSize > 0); zero when nothing was ever batched.
func (c *Collector) MeanBatchSize() float64 {
	total, n := 0, 0
	c.each(func(r JobRecord) {
		if r.BatchSize > 0 {
			total += r.BatchSize
			n++
		}
	})
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// Throughput returns records per second of virtual time over the span
// from the first submit to the last delivery. It counts every record,
// failed and cancelled ones included; call it on Succeeded for the
// completion rate.
func (c *Collector) Throughput() float64 { return c.perSecond(c.n) }

// Goodput returns successful jobs per second whose JCT met the given
// deadline. Failed and cancelled records never count as met — a shed
// request's JCT is about zero — but their stamps still bound the span.
func (c *Collector) Goodput(deadline sim.Time) float64 {
	return c.perSecond(c.count(func(r *JobRecord) bool {
		return !r.Failed && !r.Cancelled && r.JCT() <= deadline
	}))
}

// TTFTs returns the time-to-first-token of every record that produced at
// least one token (generative jobs only).
func (c *Collector) TTFTs() []sim.Time {
	var out []sim.Time
	c.each(func(r JobRecord) {
		if t := r.TTFT(); t > 0 {
			out = append(out, t)
		}
	})
	return out
}

// TPOTs returns the mean time-per-output-token of every record with at
// least two output tokens.
func (c *Collector) TPOTs() []sim.Time {
	var out []sim.Time
	c.each(func(r JobRecord) {
		if t := r.TPOT(); t > 0 {
			out = append(out, t)
		}
	})
	return out
}

// TTFTGoodput returns requests per second whose first token arrived within
// the deadline — the interactive-serving SLO metric: a request whose later
// tokens stream slowly still feels responsive if the first one was fast.
// The span is the same submit→deliver window Throughput uses.
func (c *Collector) TTFTGoodput(deadline sim.Time) float64 {
	return c.perSecond(c.count(func(r *JobRecord) bool {
		t := r.TTFT()
		return t > 0 && t <= deadline && !r.Failed
	}))
}

// TokensPerSec returns the aggregate output-token rate over the run's
// submit→deliver span (generative serving's throughput unit).
func (c *Collector) TokensPerSec() float64 {
	tokens := 0
	c.each(func(r JobRecord) { tokens += r.OutputTokens })
	return c.perSecond(tokens)
}

// Percentile returns the p-th percentile (0 < p ≤ 100) of ds using
// nearest-rank (rank = ⌈p/100·n⌉); zero for empty input. The rank is
// computed in integer arithmetic — p is taken at millesimal precision
// (0.001 of a percentile point), which keeps the ceiling exact where a
// float epsilon hack misclassifies boundary cases.
func Percentile(ds []sim.Time, p float64) sim.Time {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]sim.Time(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := int64(len(sorted))
	pm := int64(math.Round(p * 1000)) // millesimal percentile points
	rank := (pm*n + 99999) / 100000   // ⌈pm·n/100000⌉
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// Mean returns the arithmetic mean of ds (zero for empty input).
func Mean(ds []sim.Time) sim.Time {
	if len(ds) == 0 {
		return 0
	}
	var total sim.Time
	for _, d := range ds {
		total += d
	}
	return total / sim.Time(len(ds))
}

// P99 returns the 99th-percentile JCT.
func (c *Collector) P99() sim.Time { return Percentile(c.JCTs(), 99) }

// P50 returns the median JCT.
func (c *Collector) P50() sim.Time { return Percentile(c.JCTs(), 50) }

// MeanJCT returns the mean JCT.
func (c *Collector) MeanJCT() sim.Time { return Mean(c.JCTs()) }

// jsonRec is the on-disk form of one JobRecord: the stable interchange
// schema shared by WriteJSON and ReadJSON (paella-sim -json output,
// re-ingested by paella-trace report).
type jsonRec struct {
	ID            uint64 `json:"id"`
	Model         string `json:"model"`
	Client        int    `json:"client"`
	Tenant        string `json:"tenant,omitempty"`
	SubmitNs      int64  `json:"submit_ns"`
	AdmitNs       int64  `json:"admit_ns"`
	FirstDispatch int64  `json:"first_dispatch_ns"`
	ExecDoneNs    int64  `json:"exec_done_ns"`
	DeliveredNs   int64  `json:"delivered_ns"`
	JCTNs         int64  `json:"jct_ns"`
	ColdStart     bool   `json:"cold_start,omitempty"`
	LoadNs        int64  `json:"load_ns,omitempty"`
	BatchSize     int    `json:"batch,omitempty"`
	BatchWaitNs   int64  `json:"batch_wait_ns,omitempty"`
	HoLNs         int64  `json:"hol_ns,omitempty"`
	StallNs       int64  `json:"stall_ns,omitempty"`
	PrefillNs     int64  `json:"prefill_ns,omitempty"`
	FrameworkNs   int64  `json:"framework_ns,omitempty"`
	SchedNs       int64  `json:"sched_ns,omitempty"`
	FirstTokenNs  int64  `json:"first_token_ns,omitempty"`
	PromptTokens  int    `json:"prompt_tokens,omitempty"`
	OutputTokens  int    `json:"output_tokens,omitempty"`
	Preemptions   int    `json:"preemptions,omitempty"`
	KVTransferNs  int64  `json:"kv_transfer_ns,omitempty"`
	Failed        bool   `json:"failed,omitempty"`
	FailureReason string `json:"failure_reason,omitempty"`
}

// WriteJSON emits all records as a JSON array (ns timestamps), for
// external analysis tooling.
func (c *Collector) WriteJSON(w io.Writer) error {
	out := make([]jsonRec, 0, c.n)
	c.each(func(r JobRecord) { out = append(out, r.jsonRec()) })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// jsonRec returns the record's on-disk form.
func (r *JobRecord) jsonRec() jsonRec {
	return jsonRec{
		ID: r.ID, Model: r.Model, Client: r.Client, Tenant: r.Tenant,
		SubmitNs: int64(r.Submit), AdmitNs: int64(r.Admit),
		FirstDispatch: int64(r.FirstDispatch), ExecDoneNs: int64(r.ExecDone),
		DeliveredNs: int64(r.Delivered), JCTNs: int64(r.JCT()),
		ColdStart: r.ColdStart, LoadNs: int64(r.LoadNs),
		BatchSize: r.BatchSize, BatchWaitNs: int64(r.BatchWaitNs),
		HoLNs: int64(r.HoLNs), StallNs: int64(r.StallNs),
		PrefillNs:   int64(r.PrefillNs),
		FrameworkNs: int64(r.FrameworkNs), SchedNs: int64(r.SchedNs),
		FirstTokenNs: int64(r.FirstToken), PromptTokens: r.PromptTokens,
		OutputTokens: r.OutputTokens, Preemptions: r.Preemptions,
		KVTransferNs: int64(r.KVTransferNs),
		Failed:       r.Failed, FailureReason: r.FailureReason,
	}
}

// ReadJSON parses a record array previously written by WriteJSON back
// into a Collector, preserving record order. The derived jct_ns field is
// ignored on input (JCT is always recomputed from the stamps).
func ReadJSON(r io.Reader) (*Collector, error) {
	var in []jsonRec
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	c := NewCollector()
	for _, jr := range in {
		c.Add(JobRecord{
			ID: jr.ID, Model: jr.Model, Client: jr.Client, Tenant: jr.Tenant,
			Submit: sim.Time(jr.SubmitNs), Admit: sim.Time(jr.AdmitNs),
			FirstDispatch: sim.Time(jr.FirstDispatch), ExecDone: sim.Time(jr.ExecDoneNs),
			Delivered: sim.Time(jr.DeliveredNs),
			ColdStart: jr.ColdStart, LoadNs: sim.Time(jr.LoadNs),
			BatchSize: jr.BatchSize, BatchWaitNs: sim.Time(jr.BatchWaitNs),
			HoLNs: sim.Time(jr.HoLNs), StallNs: sim.Time(jr.StallNs),
			PrefillNs:   sim.Time(jr.PrefillNs),
			FrameworkNs: sim.Time(jr.FrameworkNs), SchedNs: sim.Time(jr.SchedNs),
			FirstToken: sim.Time(jr.FirstTokenNs), PromptTokens: jr.PromptTokens,
			OutputTokens: jr.OutputTokens, Preemptions: jr.Preemptions,
			KVTransferNs: sim.Time(jr.KVTransferNs),
			Failed:       jr.Failed, FailureReason: jr.FailureReason,
		})
	}
	return c, nil
}

// CPUStats tracks a client's busy/idle accounting for Figure 14.
type CPUStats struct {
	BusyNs sim.Time
	Span   sim.Time
}

// Utilization returns busy time over span, in [0,1].
func (s CPUStats) Utilization() float64 {
	if s.Span <= 0 {
		return 0
	}
	u := float64(s.BusyNs) / float64(s.Span)
	if u > 1 {
		u = 1
	}
	return u
}
