// Package trace is the simulator's structured tracing subsystem: an
// append-only event buffer keyed by virtual time that every layer of the
// stack (internal/sim actors, the GPU device model, the CUDA runtime, the
// dispatcher, the VRAM manager, the cluster balancer) can emit into. It
// makes the paper's timelines first-class artifacts: Figure 1's per-SM
// schedules (gpu.Device.Timeline over a device's SM tracks), §5.2's
// dispatch decisions and occupancy mirror, and §4.2's per-job lifecycle
// phases all render directly from one recording.
//
// Three event shapes are recorded:
//
//   - Spans: an interval on a named track (a "thread" of a "process" in
//     Chrome trace-event terms) — per-SM block residence, hardware-queue
//     occupancy, PCIe transfers. Async spans additionally carry an id and
//     group into one timeline row per id — used for per-job lifecycle
//     phases (queued→load→pending→exec→deliver).
//   - Instants: point events — evictions, cold-start begins, scheduling
//     decisions with the policy's choice attribution, routing decisions.
//   - Counter samples: time-series values sampled on change — per-SM
//     occupancy, hardware-queue depths, dispatcher ready-queue length,
//     PCIe backlog, VRAM bytes resident. A repeated identical value is
//     dropped, so an idle counter costs nothing.
//
// The exporters (WriteChromeTrace, WriteCSV), the span views (Spans,
// TrackSpans) and the TimeSeries query API consume the buffer after the
// run.
//
// Overhead contract: a nil *Recorder is valid and every method on it is a
// no-op. All emission methods are nil-safe, and none of their non-variadic
// forms allocate when the receiver is nil (asserted by bench_test.go), so
// hot paths may call them unconditionally. Variadic ...Arg forms build an
// argument slice at the call site; guard those with a nil check on the
// stored recorder in hot code. With a nil recorder the simulation is
// bit-identical to an untraced run: the recorder never schedules events,
// owns no clock, and is consulted by components only at construction time.
package trace

import (
	"paella/internal/sim"
)

// ProcID identifies a registered process (a top-level timeline group, e.g.
// one GPU, the dispatcher, the PCIe link). The zero value is invalid and
// is returned by a nil Recorder; emitting against it is a no-op.
type ProcID int32

// TrackID identifies a registered thread track within a process (e.g. one
// SM, one hardware queue, one DMA engine). Zero is invalid/no-op.
type TrackID int32

// CounterID identifies a registered counter track. Zero is invalid/no-op.
type CounterID int32

// Arg is one key/value annotation attached to a span or instant. Val must
// be a string, bool, int, int64, uint64, float64, or sim.Time.
type Arg struct {
	Key string
	Val any
}

// Str returns a string-valued Arg.
func Str(k, v string) Arg { return Arg{Key: k, Val: v} }

// Int returns an integer-valued Arg.
func Int(k string, v int64) Arg { return Arg{Key: k, Val: v} }

// Bool returns a boolean-valued Arg.
func Bool(k string, v bool) Arg { return Arg{Key: k, Val: v} }

// Dur returns a virtual-duration Arg (exported as nanoseconds).
func Dur(k string, v sim.Time) Arg { return Arg{Key: k, Val: v} }

type eventKind uint8

const (
	evSpan eventKind = iota
	evAsync
	evInstant
	evSample
)

// event is one buffered record; fields are overloaded by kind to keep the
// buffer a single flat slice appended in deterministic simulation order.
type event struct {
	kind   eventKind
	track  TrackID   // spans, instants
	proc   ProcID    // async spans
	ctr    CounterID // samples
	name   string
	cat    string
	id     uint64 // async grouping id
	start  sim.Time
	end    sim.Time
	series string  // samples
	value  float64 // samples
	args   []Arg
}

type procInfo struct {
	name    string
	threads int // tids handed out so far
}

type threadInfo struct {
	proc ProcID
	tid  int32
	name string
}

type counterInfo struct {
	proc ProcID
	name string
}

type sampleKey struct {
	ctr    CounterID
	series string
}

// Recorder is the append-only trace buffer. Construct with New; a nil
// Recorder is the disabled state and every method on it is a no-op.
// Recorders are not goroutine-safe: like the rest of the simulator they
// must only be touched from the event loop.
type Recorder struct {
	procs    []procInfo
	threads  []threadInfo
	counters []counterInfo
	events   []event
	last     map[sampleKey]float64
	maxTime  sim.Time
}

// New returns an empty enabled recorder.
func New() *Recorder {
	return &Recorder{last: make(map[sampleKey]float64)}
}

// FromEnv retrieves the recorder attached to the environment with
// Env.SetRecorder, or nil when tracing is disabled. Components call it
// once at construction and store the typed pointer.
func FromEnv(env *sim.Env) *Recorder {
	if env == nil {
		return nil
	}
	r, _ := env.Recorder().(*Recorder)
	return r
}

// Process registers a timeline process (one GPU, the dispatcher, ...) and
// returns its handle. Duplicate names are allowed — they get distinct ids.
func (r *Recorder) Process(name string) ProcID {
	if r == nil {
		return 0
	}
	r.procs = append(r.procs, procInfo{name: name})
	return ProcID(len(r.procs))
}

// Thread registers a named track under the process and returns its handle.
func (r *Recorder) Thread(p ProcID, name string) TrackID {
	if r == nil || p <= 0 {
		return 0
	}
	pi := &r.procs[p-1]
	pi.threads++
	r.threads = append(r.threads, threadInfo{proc: p, tid: int32(pi.threads), name: name})
	return TrackID(len(r.threads))
}

// Counter registers a counter track under the process and returns its
// handle. One counter may carry multiple series (distinct series keys in
// Sample), which Perfetto renders as stacked lines of one track.
func (r *Recorder) Counter(p ProcID, name string) CounterID {
	if r == nil || p <= 0 {
		return 0
	}
	r.counters = append(r.counters, counterInfo{proc: p, name: name})
	return CounterID(len(r.counters))
}

func (r *Recorder) push(e event) {
	if e.end > r.maxTime {
		r.maxTime = e.end
	} else if e.start > r.maxTime {
		r.maxTime = e.start
	}
	r.events = append(r.events, e)
}

// SpanArgs records a completed interval [start, end] on a thread track,
// with annotations. The variadic slice allocates at the call site even for
// a nil recorder — guard hot-path calls with a nil check.
func (r *Recorder) SpanArgs(t TrackID, name, cat string, start, end sim.Time, args ...Arg) {
	if r == nil || t <= 0 {
		return
	}
	r.push(event{kind: evSpan, track: t, name: name, cat: cat, start: start, end: end, args: args})
}

// Async records a completed interval of an async group: all spans sharing
// (process, cat, id) render as one timeline row — one row per job.
func (r *Recorder) Async(p ProcID, id uint64, name, cat string, start, end sim.Time) {
	if r == nil || p <= 0 {
		return
	}
	r.push(event{kind: evAsync, proc: p, id: id, name: name, cat: cat, start: start, end: end})
}

// AsyncArgs is Async with annotations (see SpanArgs for the allocation
// caveat).
func (r *Recorder) AsyncArgs(p ProcID, id uint64, name, cat string, start, end sim.Time, args ...Arg) {
	if r == nil || p <= 0 {
		return
	}
	r.push(event{kind: evAsync, proc: p, id: id, name: name, cat: cat, start: start, end: end, args: args})
}

// Instant records a point event on a thread track.
func (r *Recorder) Instant(t TrackID, name, cat string, at sim.Time) {
	if r == nil || t <= 0 {
		return
	}
	r.push(event{kind: evInstant, track: t, name: name, cat: cat, start: at, end: at})
}

// InstantArgs is Instant with annotations (see SpanArgs for the allocation
// caveat).
func (r *Recorder) InstantArgs(t TrackID, name, cat string, at sim.Time, args ...Arg) {
	if r == nil || t <= 0 {
		return
	}
	r.push(event{kind: evInstant, track: t, name: name, cat: cat, start: at, end: at, args: args})
}

// Sample records one counter-series value at the given time. Identical
// consecutive values of a series are dropped ("sampled on change"), so
// callers may sample unconditionally at every mutation site.
func (r *Recorder) Sample(c CounterID, series string, at sim.Time, v float64) {
	if r == nil || c <= 0 {
		return
	}
	k := sampleKey{ctr: c, series: series}
	if last, ok := r.last[k]; ok && last == v {
		return
	}
	r.last[k] = v
	r.push(event{kind: evSample, ctr: c, series: series, start: at, end: at, value: v})
}

// Len returns the number of buffered events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// MaxTime returns the latest timestamp observed across all events (the
// trace's makespan).
func (r *Recorder) MaxTime() sim.Time {
	if r == nil {
		return 0
	}
	return r.maxTime
}

// Counts returns the number of buffered events by shape, for tests and
// summaries: plain spans, async spans, instants, counter samples.
func (r *Recorder) Counts() (spans, asyncs, instants, samples int) {
	if r == nil {
		return
	}
	for i := range r.events {
		switch r.events[i].kind {
		case evSpan:
			spans++
		case evAsync:
			asyncs++
		case evInstant:
			instants++
		case evSample:
			samples++
		}
	}
	return
}

// SpanView is the exported read-only view of one buffered span (plain or
// async), for programmatic consumers.
type SpanView struct {
	Process string
	Track   string // empty for async spans
	Name    string
	Cat     string
	ID      uint64 // zero for plain spans
	Start   sim.Time
	End     sim.Time
	Args    []Arg
}

// Arg returns the value of the span's annotation named key, or nil.
func (v SpanView) Arg(key string) any {
	for _, a := range v.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return nil
}

// Spans returns all buffered spans (plain and async) in emission order.
func (r *Recorder) Spans() []SpanView {
	if r == nil {
		return nil
	}
	var out []SpanView
	for i := range r.events {
		if e := &r.events[i]; e.kind == evSpan || e.kind == evAsync {
			out = append(out, r.spanView(e))
		}
	}
	return out
}

// TrackSpans returns the plain spans on one thread track in emission
// order; instants on the track are not included.
func (r *Recorder) TrackSpans(t TrackID) []SpanView {
	if r == nil {
		return nil
	}
	var out []SpanView
	for i := range r.events {
		if e := &r.events[i]; e.kind == evSpan && e.track == t {
			out = append(out, r.spanView(e))
		}
	}
	return out
}

func (r *Recorder) spanView(e *event) SpanView {
	v := SpanView{Name: e.name, Cat: e.cat, ID: e.id, Start: e.start, End: e.end, Args: e.args}
	if e.kind == evSpan {
		th := r.threads[e.track-1]
		v.Process, v.Track = r.procs[th.proc-1].name, th.name
	} else {
		v.Process = r.procs[e.proc-1].name
	}
	return v
}

// seriesID formats a fully-qualified series key "process/counter/series".
func (r *Recorder) seriesID(c CounterID, series string) string {
	ci := r.counters[c-1]
	return r.procs[ci.proc-1].name + "/" + ci.name + "/" + series
}
