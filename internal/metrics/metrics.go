// Package metrics collects per-request latency records and computes the
// aggregate statistics the paper reports: percentile job completion times,
// throughput/goodput, the per-stage overheads of Figure 10's breakdown, and
// client CPU utilization (Figure 14).
//
// A Collector stores its records in append-only fixed-size chunks, so a
// long run's record store never regrows or copies (DESIGN.md §14.3).
// Records are written during the run and read after it: the aggregate
// methods walk the chunks in place, and Records builds one contiguous
// view on demand.
package metrics

import (
	"encoding/json"
	"io"
	"math"
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

// chunkSize is how many records one storage chunk holds (224 KiB at
// today's 224-byte JobRecord). Add fills the last chunk and links a fresh
// one when it is full, so no chunk is ever copied or outgrown.
const chunkSize = 1024

// chunk is one fixed block of records in Add order.
type chunk struct {
	recs [chunkSize]JobRecord
	n    int
	next *chunk
}

// Collector accumulates job records for one run. Records live in
// append-only fixed-size chunks, so a long run's store never regrows: a
// record is written once and never copied or orphaned by later Adds. The
// aggregate methods walk the chunks in place; Records builds a contiguous
// view only when a caller asks for one. Read records after the run.
type Collector struct {
	head, tail *chunk
	n          int
	// view is Records' contiguous slice, built on demand and dropped by
	// the next Add.
	view []JobRecord
}

// NewCollector returns an empty collector. It allocates no chunk: the
// first Add does.
func NewCollector() *Collector { return &Collector{} }

// Add appends one completed job.
func (c *Collector) Add(r JobRecord) {
	if c.tail == nil || c.tail.n == chunkSize {
		ch := new(chunk)
		if c.tail == nil {
			c.head = ch
		} else {
			c.tail.next = ch
		}
		c.tail = ch
	}
	c.tail.recs[c.tail.n] = r
	c.tail.n++
	c.n++
	c.view = nil
}

// Len returns the number of records.
func (c *Collector) Len() int { return c.n }

// Records returns every record in Add order as one contiguous slice;
// callers must not mutate it. The slice is built on the first call after
// an Add (records spanning more than one chunk are copied into it) and
// shared by later calls until the next Add. A returned slice keeps its
// contents when records are added later. It is meant for reading after
// the run: calling it between Adds copies the store each time.
func (c *Collector) Records() []JobRecord {
	if c.view != nil || c.n == 0 {
		return c.view
	}
	if c.head == c.tail {
		c.view = c.head.recs[:c.n:c.n]
		return c.view
	}
	c.view = make([]JobRecord, 0, c.n)
	for ch := c.head; ch != nil; ch = ch.next {
		c.view = append(c.view, ch.recs[:ch.n]...)
	}
	return c.view
}

// each calls fn on every record in Add order, walking the chunks in place.
func (c *Collector) each(fn func(r *JobRecord)) {
	for ch := c.head; ch != nil; ch = ch.next {
		for i := range ch.recs[:ch.n] {
			fn(&ch.recs[i])
		}
	}
}

// filter returns a collector holding the records keep accepts, in order.
func (c *Collector) filter(keep func(r *JobRecord) bool) *Collector {
	out := NewCollector()
	c.each(func(r *JobRecord) {
		if keep(r) {
			out.Add(*r)
		}
	})
	return out
}

// count returns how many records match.
func (c *Collector) count(match func(r *JobRecord) bool) int {
	n := 0
	c.each(func(r *JobRecord) {
		if match(r) {
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
	first, last := c.head.recs[0].Submit, c.head.recs[0].Delivered
	c.each(func(r *JobRecord) {
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
	c.each(func(r *JobRecord) { out = append(out, r.JCT()) })
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
	c.each(func(r *JobRecord) {
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
	c.each(func(r *JobRecord) {
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
	c.each(func(r *JobRecord) { total += r.LoadNs })
	return total / sim.Time(c.n)
}

// MeanBatchSize returns the mean widest-batch size over batched records
// (BatchSize > 0); zero when nothing was ever batched.
func (c *Collector) MeanBatchSize() float64 {
	total, n := 0, 0
	c.each(func(r *JobRecord) {
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
	c.each(func(r *JobRecord) {
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
	c.each(func(r *JobRecord) {
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
	c.each(func(r *JobRecord) { tokens += r.OutputTokens })
	return c.perSecond(tokens)
}

// Preemptions totals KV-pressure preemptions across all records.
func (c *Collector) Preemptions() int {
	n := 0
	c.each(func(r *JobRecord) { n += r.Preemptions })
	return n
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
	c.each(func(r *JobRecord) { out = append(out, r.jsonRec()) })
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
