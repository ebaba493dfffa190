// Package vram models device-memory residency for model weights: the
// regime real serving fleets live in once the deployed model zoo outgrows
// GPU memory. The paper's evaluation (§7) keeps every model resident; this
// subsystem removes that assumption so experiments can exercise cold-start
// weight transfers competing with inference tensor traffic for PCIe.
//
// The Manager is a pure state machine on virtual time — it owns no clocks
// and issues no transfers. The dispatcher (internal/core) drives it:
//
//	Pin        job admitted for the model (eviction protection)
//	BeginLoad  cold → loading; allocates blocks, evicting LRU victims
//	FinishLoad loading → resident (the H2D weight copy finished)
//	Unpin      job finished; the model becomes evictable when unpinned
//
// Weights are read-only, so eviction needs no writeback: a victim passes
// through the transient Evicting state and its blocks free immediately.
// Allocation is block-granular (BlockBytes, default 2 MiB — the CUDA
// driver's large-page unit), so fragmentation rounds every model up to
// whole blocks.
package vram

import (
	"fmt"
	"sort"

	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
)

// State is one residency state of a model's weights.
type State int

const (
	// Cold: the weights are not in device memory and no transfer is in
	// flight. A request for a cold model triggers a load.
	Cold State = iota
	// Loading: an H2D weight copy is in flight; blocks are allocated.
	Loading
	// Resident: the weights are in device memory and kernels may run.
	Resident
	// Evicting: the weights are being torn down (transient — weights are
	// read-only, so there is no writeback and the state lasts no
	// simulated time).
	Evicting
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Cold:
		return "cold"
	case Loading:
		return "loading"
	case Resident:
		return "resident"
	case Evicting:
		return "evicting"
	default:
		return "unknown"
	}
}

// DefaultBlockBytes is the allocator granularity when Config.BlockBytes is
// zero: 2 MiB, the CUDA driver's large-page allocation unit.
const DefaultBlockBytes = 2 << 20

// Config parameterizes a Manager.
type Config struct {
	// CapacityBytes is the device-memory budget available for model
	// weights. Zero is invalid at New (callers default it from
	// gpu.Config.VRAMBytes).
	CapacityBytes int64
	// BlockBytes is the allocation granularity (default 2 MiB).
	BlockBytes int64
}

// Stats counts manager activity over its lifetime.
type Stats struct {
	// Pins is the number of Pin calls (one per admitted request).
	Pins uint64
	// WarmHits counts pins that found the model already resident.
	WarmHits uint64
	// ColdPins counts pins that found the model cold or still loading.
	ColdPins uint64
	// Loads counts weight loads started (BeginLoad successes).
	Loads uint64
	// Evictions counts models evicted to make room.
	Evictions uint64
	// BytesLoaded totals weight bytes transferred host→device.
	BytesLoaded int64
	// KVPeakBlocks is the high-water mark of the paged KV-cache allocation
	// (ReserveKV; internal/llm's per-token pages).
	KVPeakBlocks int
}

// ErrNoMemory is returned by BeginLoad when the weights cannot be placed
// even after evicting every unpinned resident model. The caller should
// retry once an Unpin frees eviction candidates.
var ErrNoMemory = fmt.Errorf("vram: insufficient evictable device memory")

type entry struct {
	name   string
	bytes  int64
	blocks int
	state  State
	// pinned counts live requests referencing the model; eviction only
	// considers entries with pinned == 0.
	pinned   int
	lastUsed sim.Time
	// seq breaks lastUsed ties deterministically (registration order).
	seq int
}

// Manager tracks weight residency for one GPU. All methods must be called
// from the simulation event loop; the Manager is not goroutine-safe.
type Manager struct {
	cfg         Config
	totalBlocks int
	usedBlocks  int
	// pressureBlocks is memory carved out by ReservePressure (fault
	// injection: a co-tenant allocation spike); counted inside usedBlocks.
	pressureBlocks int
	// kvBlocks is memory held by the paged KV-cache (ReserveKV); counted
	// inside usedBlocks. KV pages are pinned by construction — eviction
	// never considers them, so exhaustion surfaces as ErrNoMemory and the
	// caller (internal/llm) preempts a sequence to reclaim its pages.
	kvBlocks int
	entries  map[string]*entry

	// onEvict, if set, observes each victim while it is in the Evicting
	// state. Only the package's tests set it.
	onEvict func(name string)

	stats Stats

	// rec is the structured tracing recorder attached via AttachTrace (nil
	// = disabled). The Manager owns no clock, so lastNow shadows the most
	// recent virtual time passed to any mutator — eviction happens inside
	// BeginLoad and is stamped with it.
	rec     *trace.Recorder
	evTrack trace.TrackID
	usedC   trace.CounterID
	lastNow sim.Time

	// mt is the optional windowed telemetry meter attached via AttachMeter
	// (nil = disabled): used-bytes and KV-page gauges sampled wherever the
	// trace counter is.
	mt     *telemetry.Meter
	mtUsed telemetry.MetricID
	mtKV   telemetry.MetricID
}

// AttachTrace wires the manager's residency events (load begin/done,
// evictions) and the bytes-resident counter into the recorder, under the
// given process (normally the owning dispatcher's). A nil recorder is a
// no-op.
func (m *Manager) AttachTrace(rec *trace.Recorder, proc trace.ProcID) {
	if rec == nil {
		return
	}
	m.rec = rec
	m.evTrack = rec.Thread(proc, "vram")
	m.usedC = rec.Counter(proc, "vram used bytes")
}

// AttachMeter wires the used-bytes and KV-page gauges into the windowed
// telemetry meter. A nil meter is a no-op.
func (m *Manager) AttachMeter(mt *telemetry.Meter) {
	if mt == nil {
		return
	}
	m.mt = mt
	m.mtUsed = mt.Gauge("vram/used_bytes")
	m.mtKV = mt.Gauge("vram/kv_pages")
}

// traceUsed samples the bytes held by loading/resident models (and the KV
// pool level) into the recorder and the meter; nil-safe on both.
func (m *Manager) traceUsed() {
	if m.rec != nil {
		m.rec.Sample(m.usedC, "value", m.lastNow, float64(int64(m.usedBlocks)*m.cfg.BlockBytes))
	}
	if m.mt != nil {
		m.mt.Set(m.mtUsed, m.lastNow, float64(int64(m.usedBlocks)*m.cfg.BlockBytes))
		m.mt.Set(m.mtKV, m.lastNow, float64(m.kvBlocks))
	}
}

// NewManager builds a manager with the given capacity budget.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.CapacityBytes <= 0 {
		return nil, fmt.Errorf("vram: capacity %d bytes", cfg.CapacityBytes)
	}
	if cfg.BlockBytes <= 0 {
		cfg.BlockBytes = DefaultBlockBytes
	}
	total := int(cfg.CapacityBytes / cfg.BlockBytes)
	if total <= 0 {
		return nil, fmt.Errorf("vram: capacity %d smaller than one %d-byte block",
			cfg.CapacityBytes, cfg.BlockBytes)
	}
	return &Manager{
		cfg:         cfg,
		totalBlocks: total,
		entries:     make(map[string]*entry),
	}, nil
}

// MustNewManager is NewManager for known-good configs; it panics on error.
func MustNewManager(cfg Config) *Manager {
	m, err := NewManager(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Register declares a model's weight footprint. Models with zero weight
// bytes occupy no blocks and are permanently resident (the pre-vram
// behaviour). Registration fails if the weights alone exceed capacity.
func (m *Manager) Register(name string, weightBytes int64) error {
	blocks, err := m.blocksFor(name, weightBytes)
	if err != nil {
		return err
	}
	e := &entry{name: name, bytes: weightBytes, blocks: blocks, seq: len(m.entries)}
	if blocks == 0 {
		e.state = Resident
	}
	m.entries[name] = e
	return nil
}

// CheckRegister returns the error Register would, without registering.
func (m *Manager) CheckRegister(name string, weightBytes int64) error {
	_, err := m.blocksFor(name, weightBytes)
	return err
}

// blocksFor returns the blocks a new model's weights occupy, or why it
// cannot be registered.
func (m *Manager) blocksFor(name string, weightBytes int64) (int, error) {
	if _, dup := m.entries[name]; dup {
		return 0, fmt.Errorf("vram: model %q already registered", name)
	}
	if weightBytes < 0 {
		return 0, fmt.Errorf("vram: model %q weight bytes %d", name, weightBytes)
	}
	blocks := int((weightBytes + m.cfg.BlockBytes - 1) / m.cfg.BlockBytes)
	if blocks > m.totalBlocks {
		return 0, fmt.Errorf("vram: model %q needs %d blocks, device has %d",
			name, blocks, m.totalBlocks)
	}
	return blocks, nil
}

// Registered reports whether the model is known to the manager.
func (m *Manager) Registered(name string) bool {
	_, ok := m.entries[name]
	return ok
}

// State returns the model's residency state.
func (m *Manager) State(name string) State { return m.get(name).state }

// Resident reports whether the model's weights are usable right now.
func (m *Manager) Resident(name string) bool { return m.get(name).state == Resident }

// Pinned returns the model's pin count.
func (m *Manager) Pinned(name string) int { return m.get(name).pinned }

// Pin marks one live request against the model, protecting it from
// eviction for the request's lifetime, and classifies the access as a warm
// hit or a cold pin.
func (m *Manager) Pin(name string, now sim.Time) {
	e := m.get(name)
	m.lastNow = now
	e.pinned++
	e.lastUsed = now
	m.stats.Pins++
	if e.state == Resident {
		m.stats.WarmHits++
	} else {
		m.stats.ColdPins++
	}
}

// Unpin releases one Pin. An unpinned resident model becomes an eviction
// candidate, LRU by last use.
func (m *Manager) Unpin(name string, now sim.Time) {
	e := m.get(name)
	m.lastNow = now
	if e.pinned <= 0 {
		panic(fmt.Sprintf("vram: unpin of unpinned model %q", name))
	}
	e.pinned--
	e.lastUsed = now
}

// BeginLoad starts a cold model's weight load: blocks are allocated (LRU
// unpinned resident models are evicted as needed) and the model enters
// Loading. The caller models the H2D transfer and calls FinishLoad when it
// completes. ErrNoMemory means every remaining byte is pinned or loading;
// the caller should retry after an Unpin.
func (m *Manager) BeginLoad(name string, now sim.Time) error {
	e := m.get(name)
	m.lastNow = now
	if e.state != Cold {
		panic(fmt.Sprintf("vram: BeginLoad of %s model %q", e.state, name))
	}
	if err := m.ensureFree(e.blocks); err != nil {
		return err
	}
	m.usedBlocks += e.blocks
	e.state = Loading
	e.lastUsed = now
	m.stats.Loads++
	m.stats.BytesLoaded += e.bytes
	if m.rec != nil {
		m.rec.InstantArgs(m.evTrack, name, "vram-load-begin", now, trace.Int("bytes", e.bytes))
	}
	m.traceUsed()
	return nil
}

// AbortLoad abandons an in-flight load (the H2D weight copy failed):
// loading → cold, blocks freed. The caller decides whether to retry; the
// manager only unwinds the allocation.
func (m *Manager) AbortLoad(name string, now sim.Time) {
	e := m.get(name)
	m.lastNow = now
	if e.state != Loading {
		panic(fmt.Sprintf("vram: AbortLoad of %s model %q", e.state, name))
	}
	e.state = Cold
	m.usedBlocks -= e.blocks
	// The failed transfer still moved no usable bytes; keep BytesLoaded as
	// the attempted total (it counts H2D traffic, and the wire time was
	// genuinely spent); the trace records the abort.
	if m.rec != nil {
		m.rec.InstantArgs(m.evTrack, name, "vram-load-abort", now, trace.Int("bytes", e.bytes))
	}
	m.traceUsed()
}

// ReservePressure carves up to `blocks` blocks out of the budget without
// binding them to any model — fault injection's co-tenant allocation spike.
// LRU unpinned residents are evicted to make room; if less than the full
// request is reclaimable the spike takes what it can. Returns the blocks
// actually reserved (add to a later ReleasePressure).
func (m *Manager) ReservePressure(blocks int, now sim.Time) int {
	if blocks <= 0 {
		return 0
	}
	m.lastNow = now
	if err := m.ensureFree(blocks); err != nil {
		// Partial pressure: take whatever is currently free.
		blocks = m.totalBlocks - m.usedBlocks
		if blocks <= 0 {
			return 0
		}
	}
	m.usedBlocks += blocks
	m.pressureBlocks += blocks
	if m.rec != nil {
		m.rec.InstantArgs(m.evTrack, "pressure", "vram-pressure", now,
			trace.Int("bytes", int64(blocks)*m.cfg.BlockBytes))
	}
	m.traceUsed()
	return blocks
}

// ReleasePressure returns previously reserved pressure blocks to the
// budget. Releasing more than is held panics (an injector bookkeeping bug).
func (m *Manager) ReleasePressure(blocks int, now sim.Time) {
	if blocks <= 0 {
		return
	}
	m.lastNow = now
	if blocks > m.pressureBlocks {
		panic(fmt.Sprintf("vram: releasing %d pressure blocks, holding %d", blocks, m.pressureBlocks))
	}
	m.pressureBlocks -= blocks
	m.usedBlocks -= blocks
	if m.rec != nil {
		m.rec.Instant(m.evTrack, "pressure-released", "vram-pressure", now)
	}
	m.traceUsed()
}

// ReserveKV allocates blocks for paged KV-cache entries (internal/llm's
// vLLM-style token pages). LRU unpinned resident models are evicted to make
// room, exactly as for a weight load; the reservation is all-or-nothing —
// ErrNoMemory means the caller must free pages (retire or preempt a
// sequence) before retrying. KV pages are pinned by construction: they are
// never eviction candidates, so a fully-KV device fails fast instead of
// thrashing the evictor.
func (m *Manager) ReserveKV(blocks int, now sim.Time) error {
	if blocks < 0 {
		panic(fmt.Sprintf("vram: reserving %d KV blocks", blocks))
	}
	if blocks == 0 {
		return nil
	}
	m.lastNow = now
	if err := m.ensureFree(blocks); err != nil {
		return err
	}
	m.usedBlocks += blocks
	m.kvBlocks += blocks
	if m.kvBlocks > m.stats.KVPeakBlocks {
		m.stats.KVPeakBlocks = m.kvBlocks
	}
	if m.rec != nil {
		m.rec.InstantArgs(m.evTrack, "kv", "vram-kv-reserve", now,
			trace.Int("bytes", int64(blocks)*m.cfg.BlockBytes))
	}
	m.traceUsed()
	return nil
}

// ReleaseKV returns previously reserved KV blocks to the budget. Releasing
// more than is held panics (a paging bookkeeping bug in the caller).
func (m *Manager) ReleaseKV(blocks int, now sim.Time) {
	if blocks < 0 {
		panic(fmt.Sprintf("vram: releasing %d KV blocks", blocks))
	}
	if blocks == 0 {
		return
	}
	m.lastNow = now
	if blocks > m.kvBlocks {
		panic(fmt.Sprintf("vram: releasing %d KV blocks, holding %d", blocks, m.kvBlocks))
	}
	m.kvBlocks -= blocks
	m.usedBlocks -= blocks
	if m.rec != nil {
		m.rec.InstantArgs(m.evTrack, "kv", "vram-kv-release", now,
			trace.Int("bytes", int64(blocks)*m.cfg.BlockBytes))
	}
	m.traceUsed()
}

// KVBlocks returns the blocks currently held by the paged KV-cache.
func (m *Manager) KVBlocks() int { return m.kvBlocks }

// FinishLoad completes a load: loading → resident.
func (m *Manager) FinishLoad(name string, now sim.Time) {
	e := m.get(name)
	m.lastNow = now
	if e.state != Loading {
		panic(fmt.Sprintf("vram: FinishLoad of %s model %q", e.state, name))
	}
	e.state = Resident
	e.lastUsed = now
	if m.rec != nil {
		m.rec.Instant(m.evTrack, name, "vram-load-done", now)
	}
}

// Evict drops an unpinned resident model's weights, freeing its blocks.
// Exposed for tests and tooling; BeginLoad evicts automatically.
func (m *Manager) Evict(name string) error {
	e := m.get(name)
	if e.state != Resident {
		return fmt.Errorf("vram: evicting %s model %q", e.state, name)
	}
	if e.pinned > 0 {
		return fmt.Errorf("vram: evicting pinned model %q (%d pins)", name, e.pinned)
	}
	if e.blocks == 0 {
		return fmt.Errorf("vram: model %q holds no blocks", name)
	}
	m.evict(e)
	return nil
}

// ensureFree evicts LRU unpinned resident models until need blocks are
// free, or fails without evicting anything if that is impossible.
func (m *Manager) ensureFree(need int) error {
	free := m.totalBlocks - m.usedBlocks
	if free >= need {
		return nil
	}
	// Candidates: resident, unpinned, holding blocks — oldest first.
	// (Deterministic order: map iteration is randomized, so sort.)
	var victims []*entry
	evictable := 0
	for _, e := range m.entries {
		if e.state == Resident && e.pinned == 0 && e.blocks > 0 {
			victims = append(victims, e)
			evictable += e.blocks
		}
	}
	if free+evictable < need {
		return ErrNoMemory
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].lastUsed != victims[j].lastUsed {
			return victims[i].lastUsed < victims[j].lastUsed
		}
		return victims[i].seq < victims[j].seq
	})
	for _, v := range victims {
		if free >= need {
			break
		}
		m.evict(v)
		free += v.blocks
	}
	return nil
}

// evict transitions one victim resident → evicting → cold and frees its
// blocks. Weights are read-only: no writeback transfer is modelled.
func (m *Manager) evict(e *entry) {
	if e.pinned > 0 {
		panic(fmt.Sprintf("vram: evicting pinned model %q", e.name))
	}
	e.state = Evicting
	if m.onEvict != nil {
		m.onEvict(e.name)
	}
	e.state = Cold
	m.usedBlocks -= e.blocks
	m.stats.Evictions++
	if m.usedBlocks < 0 {
		panic("vram: block accounting went negative")
	}
	if m.rec != nil {
		m.rec.InstantArgs(m.evTrack, e.name, "vram-evict", m.lastNow, trace.Int("bytes", e.bytes))
	}
	m.traceUsed()
}

// CapacityBytes returns the configured budget.
func (m *Manager) CapacityBytes() int64 { return m.cfg.CapacityBytes }

// TotalBlocks returns the device's block count.
func (m *Manager) TotalBlocks() int { return m.totalBlocks }

// UsedBlocks returns the blocks held by loading/resident models.
func (m *Manager) UsedBlocks() int { return m.usedBlocks }

// FreeBytes returns the unallocated budget.
func (m *Manager) FreeBytes() int64 {
	return int64(m.totalBlocks-m.usedBlocks) * m.cfg.BlockBytes
}

// Stats returns a snapshot of lifetime counters.
func (m *Manager) Stats() Stats { return m.stats }

// ResidentModels returns the names of resident models, sorted (tests,
// experiment reports).
func (m *Manager) ResidentModels() []string {
	var out []string
	for name, e := range m.entries {
		if e.state == Resident {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// CheckInvariants panics if the allocator's accounting is inconsistent:
// the sum of blocks held by loading/resident models must equal UsedBlocks,
// and usage must never exceed capacity. Tests call it between steps.
func (m *Manager) CheckInvariants() {
	sum := 0
	for name, e := range m.entries {
		switch e.state {
		case Loading, Resident:
			sum += e.blocks
		case Cold:
		case Evicting:
			panic(fmt.Sprintf("vram: model %q stuck in transient Evicting state", name))
		}
		if e.pinned < 0 {
			panic(fmt.Sprintf("vram: model %q pin count %d", name, e.pinned))
		}
	}
	if sum+m.pressureBlocks+m.kvBlocks != m.usedBlocks {
		panic(fmt.Sprintf("vram: used blocks %d but models hold %d, pressure %d, kv %d",
			m.usedBlocks, sum, m.pressureBlocks, m.kvBlocks))
	}
	if m.kvBlocks < 0 {
		panic(fmt.Sprintf("vram: kv block count %d", m.kvBlocks))
	}
	if m.usedBlocks > m.totalBlocks {
		panic(fmt.Sprintf("vram: used %d of %d blocks", m.usedBlocks, m.totalBlocks))
	}
}

func (m *Manager) get(name string) *entry {
	e, ok := m.entries[name]
	if !ok {
		panic(fmt.Sprintf("vram: unknown model %q", name))
	}
	return e
}
