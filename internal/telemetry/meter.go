package telemetry

import (
	"math/bits"

	"paella/internal/metrics"
	"paella/internal/sim"
)

// Kind classifies an instrument.
type Kind uint8

const (
	// KindCounter is a monotonically accumulating count; windows report
	// the delta observed within them.
	KindCounter Kind = iota
	// KindGauge is a sampled level (queue depth, bytes in use); windows
	// report the last sample plus the min/max seen within them.
	KindGauge
	// KindHist is a distribution; observations feed a cumulative
	// log-bucketed histogram plus windowed count/sum/min/max rows.
	KindHist
)

// String names the instrument kind as it appears in exports.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "hist"
	}
}

// MetricID names a registered instrument. The zero ID is invalid and every
// update against it is a no-op, so components can register against a nil
// meter and sample unconditionally.
type MetricID int32

// histBuckets is the log2 bucket count: bucket i holds values v with
// bits.Len64(v) == i, i.e. [2^(i-1), 2^i).
const histBuckets = 64

// Row is one flushed window of an instrument: Window is the window index
// (its start is Window·windowNs in virtual time). Windows with no updates
// are not materialized.
type Row struct {
	Window int64
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
}

// instrument is the per-metric state: the live (unflushed) window plus all
// flushed rows. Updates aggregate in place; a window flushes when a later
// update crosses its boundary, so the hot path never schedules events and
// allocates only on row-capacity growth.
type instrument struct {
	name string
	kind Kind

	live    Row
	hasLive bool
	lastSet float64 // gauges: value carried into the next window
	hasSet  bool    // gauges: lastSet is a real sample, not the zero value
	carried bool    // gauges: the live window opened at the carried level
	rows    []Row

	buckets [histBuckets]int64 // KindHist only: cumulative log2 buckets
	total   int64
	sum     float64
}

// DefaultWindow is the window width a zero-valued NewMeter request gets.
const DefaultWindow = 10 * sim.Millisecond

// Meter is one registry of windowed instruments plus its SLO monitors.
// All methods are nil-safe no-ops, mirroring trace.Recorder: components
// wire a meter once at construction via FromEnv and sample
// unconditionally. A Meter is single-shard state — under sim.World each
// shard attaches its own, and the exporter merges them in a fixed order.
type Meter struct {
	name        string
	window      sim.Time
	instruments []instrument
	slos        []*sloMonitor
	alerts      []Alert

	jobsDone   MetricID
	jobsFailed MetricID
	jctHist    MetricID
	ttftHist   MetricID
	tpotHist   MetricID
}

// NewMeter returns an empty registry with the built-in per-job instruments
// (completion/failure counters and JCT/TTFT/TPOT histograms, fed by
// RecordJob) already registered. window ≤ 0 selects DefaultWindow.
func NewMeter(name string, window sim.Time) *Meter {
	if window <= 0 {
		window = DefaultWindow
	}
	m := &Meter{name: name, window: window}
	m.jobsDone = m.Counter("jobs/completed")
	m.jobsFailed = m.Counter("jobs/failed")
	m.jctHist = m.Histogram("jobs/jct_ns")
	m.ttftHist = m.Histogram("jobs/ttft_ns")
	m.tpotHist = m.Histogram("jobs/tpot_ns")
	return m
}

// FromEnv returns the meter attached to the environment, or nil. The
// typed retrieval lives here so internal/sim stays import-free of the
// telemetry layer.
func FromEnv(env *sim.Env) *Meter {
	m, _ := env.Meter().(*Meter)
	return m
}

// Name returns the registry name (e.g. "replica0").
func (m *Meter) Name() string {
	if m == nil {
		return ""
	}
	return m.name
}

func (m *Meter) register(name string, kind Kind) MetricID {
	if m == nil {
		return 0
	}
	m.instruments = append(m.instruments, instrument{name: name, kind: kind})
	return MetricID(len(m.instruments))
}

// Counter registers a monotonically increasing count.
func (m *Meter) Counter(name string) MetricID { return m.register(name, KindCounter) }

// Gauge registers a sampled level.
func (m *Meter) Gauge(name string) MetricID { return m.register(name, KindGauge) }

// Histogram registers a distribution.
func (m *Meter) Histogram(name string) MetricID { return m.register(name, KindHist) }

// roll flushes the instrument's live window if t has moved past it and
// opens the window containing t.
func (m *Meter) roll(in *instrument, t sim.Time) {
	w := int64(t / m.window)
	if in.hasLive && in.live.Window == w {
		return
	}
	if in.hasLive {
		in.rows = append(in.rows, in.live)
	}
	in.live = Row{Window: w}
	in.hasLive = true
	in.carried = false
	if in.kind == KindGauge && in.hasSet {
		// A gauge's level persists across the boundary: the new window
		// opens at the carried value (it bounds min/max but is not a
		// sample, so Count stays zero until the next Set).
		in.live.Min, in.live.Max, in.live.Sum = in.lastSet, in.lastSet, in.lastSet
		in.carried = true
	}
}

// Add increments a counter by delta at virtual time t.
func (m *Meter) Add(id MetricID, t sim.Time, delta int64) {
	if m == nil || id == 0 {
		return
	}
	in := &m.instruments[id-1]
	m.roll(in, t)
	in.live.Count += delta
	in.live.Sum += float64(delta)
}

// Set samples a gauge's level at virtual time t.
func (m *Meter) Set(id MetricID, t sim.Time, v float64) {
	if m == nil || id == 0 {
		return
	}
	in := &m.instruments[id-1]
	m.roll(in, t)
	if in.live.Count == 0 && !in.carried {
		in.live.Min, in.live.Max = v, v
	} else {
		if v < in.live.Min {
			in.live.Min = v
		}
		if v > in.live.Max {
			in.live.Max = v
		}
	}
	in.live.Count++
	in.live.Sum = v // gauges report the last sample as the window value
	in.lastSet = v
	in.hasSet = true
}

// Observe feeds one value into a histogram at virtual time t.
func (m *Meter) Observe(id MetricID, t sim.Time, v float64) {
	if m == nil || id == 0 {
		return
	}
	in := &m.instruments[id-1]
	m.roll(in, t)
	if in.live.Count == 0 {
		in.live.Min, in.live.Max = v, v
	} else {
		if v < in.live.Min {
			in.live.Min = v
		}
		if v > in.live.Max {
			in.live.Max = v
		}
	}
	in.live.Count++
	in.live.Sum += v
	in.total++
	in.sum += v
	b := 0
	if v >= 1 {
		b = bits.Len64(uint64(v))
		if b >= histBuckets {
			b = histBuckets - 1
		}
	}
	in.buckets[b]++
}

// RecordJob feeds one finished (completed or failed) request into the
// built-in job instruments and every registered SLO monitor, at virtual
// time t (the delivery stamp).
func (m *Meter) RecordJob(t sim.Time, r *metrics.JobRecord) {
	if m == nil {
		return
	}
	if r.Failed {
		m.Add(m.jobsFailed, t, 1)
	} else {
		m.Add(m.jobsDone, t, 1)
	}
	m.Observe(m.jctHist, t, float64(r.JCT()))
	if ttft := r.TTFT(); ttft > 0 {
		m.Observe(m.ttftHist, t, float64(ttft))
	}
	if tpot := r.TPOT(); tpot > 0 {
		m.Observe(m.tpotHist, t, float64(tpot))
	}
	for _, s := range m.slos {
		if alert, fired := s.record(t, r); fired {
			m.alerts = append(m.alerts, alert)
		}
	}
}

// Flush closes every live window (call once at export time, with the
// run's end time or any later stamp).
func (m *Meter) Flush(t sim.Time) {
	if m == nil {
		return
	}
	for i := range m.instruments {
		in := &m.instruments[i]
		if in.hasLive {
			in.rows = append(in.rows, in.live)
			in.hasLive = false
		}
	}
	_ = t
}

// Alerts returns the alert events emitted so far, in emission order.
func (m *Meter) Alerts() []Alert {
	if m == nil {
		return nil
	}
	return m.alerts
}
