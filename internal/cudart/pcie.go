package cudart

import (
	"fmt"

	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
)

// PCIeLink arbitrates a device's DMA copy engines: one engine per transfer
// direction (real NVIDIA parts expose separate H2D and D2H copy engines on
// one PCIe link), each strictly FIFO at the link's sustained bandwidth.
//
// The analytic memcpy model elsewhere in this package gives every transfer
// the full link to itself — adequate while the only PCIe traffic is a
// job's own input/output tensors. Once cold-start weight loads enter the
// picture (internal/vram), transfers contend: a multi-hundred-megabyte
// weight copy occupies the H2D engine for milliseconds, and the input
// tensors queued behind it wait. Routing all transfers of one device
// through a shared PCIeLink models exactly that — there is no separate
// free-bandwidth path for weight traffic.
type PCIeLink struct {
	env *sim.Env
	// copies prices each transfer; fault injection lowers its brownout
	// factor (a PCIe AER link retrain or a Gen-speed downshift).
	copies *CopyModel
	// busyUntil tracks when each direction's engine frees up.
	busyUntil [3]sim.Time

	stats LinkStats

	// rec is the structured tracing recorder (nil = disabled); each DMA
	// engine gets its own timeline track, and backlog carries the
	// per-direction queue-depth-in-time series.
	rec       *trace.Recorder
	engTracks [3]trace.TrackID
	backlog   trace.CounterID

	// mt is the optional windowed telemetry meter (nil = disabled); the
	// per-direction backlog gauges are sampled wherever the trace counter
	// is, plus a transfer-bytes histogram.
	mt        *telemetry.Meter
	mtBacklog [3]telemetry.MetricID
	mtBytes   telemetry.MetricID
}

// engSeries names the per-direction backlog series, indexed by MemcpyKind.
var engSeries = [3]string{"h2d", "d2h", "d2d"}

// LinkStats counts link activity.
type LinkStats struct {
	Bytes int64
	// QueuedNs integrates the time transfers spent waiting for their
	// engine (contention; zero on an idle link).
	QueuedNs sim.Time
}

// NewPCIeLink builds a link on the simulation environment whose transfers
// copies prices. A caller pricing other copies with the same model (the
// Paella dispatcher does) keeps one brownout factor for both.
func NewPCIeLink(env *sim.Env, copies *CopyModel) *PCIeLink {
	if copies.bytesPerNs <= 0 {
		panic(fmt.Sprintf("cudart: PCIe bandwidth %f bytes/ns", copies.bytesPerNs))
	}
	l := &PCIeLink{env: env, copies: copies}
	if rec := trace.FromEnv(env); rec != nil {
		l.rec = rec
		proc := rec.Process("PCIe")
		l.engTracks[HostToDevice] = rec.Thread(proc, "H2D")
		l.engTracks[DeviceToHost] = rec.Thread(proc, "D2H")
		l.engTracks[DeviceToDevice] = rec.Thread(proc, "D2D")
		l.backlog = rec.Counter(proc, "engine backlog ns")
	}
	if mt := telemetry.FromEnv(env); mt != nil {
		l.mt = mt
		for i, s := range engSeries {
			l.mtBacklog[i] = mt.Gauge("pcie/backlog_ns/" + s)
		}
		l.mtBytes = mt.Histogram("pcie/transfer_bytes")
	}
	return l
}

// SetBandwidthFactor sets the brownout factor (CopyModel.SetFactor) and
// marks it on the trace; transfers already enqueued keep their finish times.
func (l *PCIeLink) SetBandwidthFactor(f float64) {
	l.copies.SetFactor(f)
	if l.rec != nil {
		l.rec.InstantArgs(l.engTracks[HostToDevice], "bandwidth-factor", "fault",
			l.env.Now(), trace.Int("permille", int64(f*1000)))
	}
}

// Transfer enqueues a DMA of the given size and direction; done fires when
// it completes. Transfers of one direction serialize FIFO behind each
// other (a weight prefetch and an input-tensor copy share the H2D engine);
// opposite directions proceed concurrently, as on real hardware.
func (l *PCIeLink) Transfer(kind MemcpyKind, bytes int, done func()) {
	if bytes < 0 {
		panic("cudart: negative transfer size")
	}
	engine := int(kind)
	if engine < 0 || engine >= len(l.busyUntil) {
		panic(fmt.Sprintf("cudart: transfer direction %d", kind))
	}
	now := l.env.Now()
	start := now
	if l.busyUntil[engine] > start {
		start = l.busyUntil[engine]
	}
	dur := l.copies.Duration(bytes)
	l.busyUntil[engine] = start + dur
	l.stats.Bytes += int64(bytes)
	l.stats.QueuedNs += start - now
	if l.rec != nil {
		// The wire-occupancy interval on the engine's track (transfers of
		// one direction never overlap — the engine is FIFO), plus the
		// engine's backlog at enqueue time.
		l.rec.SpanArgs(l.engTracks[engine], "dma", "pcie", start, start+dur,
			trace.Str("dir", kind.String()), trace.Int("bytes", int64(bytes)),
			trace.Dur("queued_ns", start-now))
		l.rec.Sample(l.backlog, engSeries[engine], now, float64(l.busyUntil[engine]-now))
	}
	if l.mt != nil {
		l.mt.Set(l.mtBacklog[engine], now, float64(l.busyUntil[engine]-now))
		l.mt.Observe(l.mtBytes, now, float64(bytes))
	}
	l.env.At(start+dur, done)
}

// Stats returns a snapshot of link counters.
func (l *PCIeLink) Stats() LinkStats { return l.stats }
