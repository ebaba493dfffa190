package gpu

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"paella/internal/channel"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
)

// smState tracks the resources currently in use on one SM.
type smState struct {
	blocks  int
	threads int
	regs    int
	shmem   int
	// offline marks a retired SM (fault injection: ECC page retirement, a
	// hung partition). An offline SM accepts no new thread blocks; blocks
	// already resident drain normally, mirroring how the driver retires an
	// SM only after its work completes.
	offline bool
}

// hwQueue is one strictly-FIFO hardware queue. Only the head launch is ever
// considered for block placement; a head whose dependencies are unsatisfied
// stalls the entire queue (§2.1).
//
// The queue is a true circular ring over a power-of-two backing array:
// push and pop are O(1) with no tail copies and no compaction passes, and
// in steady state (pops keeping up with pushes) the backing array is
// reused indefinitely — zero allocations after the ring reaches the
// queue's high-water depth. Compare BenchmarkHWQueuePop with the old
// tail-shifting dequeue in BenchmarkHWQueuePopShift.
type hwQueue struct {
	buf   []*Launch // power-of-two length ring
	first int       // index of the head launch
	count int
}

func (q *hwQueue) depth() int { return q.count }

func (q *hwQueue) head() *Launch {
	if q.count == 0 {
		return nil
	}
	return q.buf[q.first]
}

func (q *hwQueue) push(l *Launch) {
	if q.count == len(q.buf) {
		q.grow()
	}
	q.buf[(q.first+q.count)&(len(q.buf)-1)] = l
	q.count++
}

func (q *hwQueue) popHead() {
	q.buf[q.first] = nil // release for GC
	q.first = (q.first + 1) & (len(q.buf) - 1)
	q.count--
}

func (q *hwQueue) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]*Launch, n)
	for i := 0; i < q.count; i++ {
		nb[i] = q.buf[(q.first+i)&(len(q.buf)-1)]
	}
	q.buf, q.first = nb, 0
}

// Stats aggregates device-lifetime counters.
type Stats struct {
	KernelsSubmitted uint64
	KernelsCompleted uint64
	BlocksPlaced     uint64
	BlocksCompleted  uint64
	// ThreadBusyNs integrates (threads in use)×time; divide by
	// (MaxThreads×NumSMs×elapsed) for utilization.
	ThreadBusyNs float64
	// StallNs integrates time during which at least one queue head was
	// ready but unplaceable OR a queue head was not ready while another
	// launch behind it was (head-of-line blocking indicator).
	HoLBlockedKernels uint64
	// SMsRetired / SMsRestored count topology changes from fault injection.
	SMsRetired  uint64
	SMsRestored uint64
	// NotifsDropped / NotifsDuplicated count notification records mutated
	// by an installed channel fault (internal/fault's lossy-notifQ model).
	NotifsDropped    uint64
	NotifsDuplicated uint64
}

// Device is a simulated GPU. All methods must be called from the simulation
// event loop (callbacks or processes of the same Env).
type Device struct {
	env    *sim.Env
	cfg    Config
	sms    []smState
	queues []hwQueue
	notifQ *channel.NotifQueue

	scheduled    bool   // a scheduling pass is pending
	pass         uint64 // scheduling passes run so far (see Launch.fullPass)
	rrCursor     int    // round-robin start queue for fairness
	smCursor     int    // round-robin start SM for placement spreading
	queued       int    // launches resident across all hardware queues
	resident     int    // thread blocks resident across all SMs
	occ          uint64 // bitmask of non-empty queues (used when nq ≤ 64)
	stats        Stats
	lastUtilAt   sim.Time
	threadsInUse int
	// freeBlocks/freeThreads aggregate spare capacity across online SMs.
	// Either being too small to host one block proves a wave places
	// nothing, letting placeBlocks skip its per-SM scan (the dominant
	// cost when the device is saturated, which is exactly when the block
	// scheduler runs most often).
	freeBlocks  int
	freeThreads int

	// rec is the structured tracing recorder picked up from the Env at
	// construction (nil when tracing is disabled; every emission site is
	// guarded so the nil path costs nothing). smTracks/qTracks are the
	// per-SM and per-hardware-queue timeline tracks; smCounters carries the
	// occupancy series of each SM, qDepth the depth series of each queue.
	rec        *trace.Recorder
	smTracks   []trace.TrackID
	qTracks    []trace.TrackID
	smCounters []trace.CounterID
	qDepth     trace.CounterID
	qSeries    []string
	// mt is the optional windowed telemetry meter (nil = disabled):
	// device-wide occupancy and hardware-queue backlog gauges sampled at
	// the same sites as the trace counters.
	mt        *telemetry.Meter
	mtThreads telemetry.MetricID
	mtBlocks  telemetry.MetricID
	mtQDepth  telemetry.MetricID
	// onNotifPosted, if set, runs (once per batch) after notifications are
	// posted to notifQ — the dispatcher uses it as its wakeup hook instead
	// of continuous polling, with the poll interval modelled separately.
	onNotifPosted func()
	// notifFault, if set, decides per record whether the notifQ write is
	// dropped, kept, or duplicated (fault injection; see channel.NotifFault).
	notifFault channel.NotifFault
	// onTopology, if set, runs after an SM is retired or restored with the
	// new online-SM count — the dispatcher rescales its occupancy mirror to
	// the surviving capacity.
	onTopology func(online int)
	offlineSMs int

	// kickFn is the device's single scheduling-pass closure, preallocated so
	// every kick schedules without allocating.
	kickFn func()
	// perSM is placeBlocks' per-wave scratch, reused across calls;
	// capScratch holds the eligible-SM capacity snapshot for the wave.
	perSM      []smPlacement
	capScratch []smCap
	// waveFree and postFree recycle the wave-completion and
	// notification-delivery event objects, so the per-wave hot path
	// schedules with zero allocations in steady state (see
	// TestWaveEventsAllocFree).
	waveFree []*waveDone
	postFree []*notifPost
	// open is the notification post the current device event is filling,
	// keyed on that event's Env.Steps value (all of one event's posts are
	// due at the same now+NotifDelay): later emits from the event append
	// their record groups to it instead of scheduling posts of their own.
	// sealPost closes it when the device schedules anything else due at
	// that time. DESIGN.md §15.1 gives the exactness argument.
	open     *notifPost
	openStep uint64
	// aggGroup is the effective notification aggregation group (≥ 1).
	aggGroup int
}

// waveDone is a pooled wave-completion event: the (SM, blocks) pairs that
// one placeBlocks call put on the device, completed together when the
// kernel's block duration elapses. DESIGN.md §15 gives the argument that
// firing them from one event reproduces the per-SM event order exactly.
type waveDone struct {
	d   *Device
	l   *Launch
	sms []smPlacement
}

func (d *Device) newWaveDone(l *Launch) *waveDone {
	var w *waveDone
	if n := len(d.waveFree); n > 0 {
		w = d.waveFree[n-1]
		d.waveFree[n-1] = nil
		d.waveFree = d.waveFree[:n-1]
	} else {
		w = &waveDone{d: d}
	}
	w.l = l
	return w
}

// waveComplete is the wave-completion event: ctx is the *waveDone. Its SMs
// complete in placement order, as their per-SM events used to.
var waveComplete sim.EventFn = func(ctx any, _ uint64) {
	w := ctx.(*waveDone)
	d, l := w.d, w.l
	for _, pl := range w.sms {
		d.completeBlocks(l, pl.sm, pl.n)
	}
	w.l, w.sms = nil, w.sms[:0]
	d.waveFree = append(d.waveFree, w)
}

// notifPost is a pooled notification-delivery event: the notifQ records
// that one device event wrote for delivery at one due time, crossing the
// channel after NotifDelay. Each emit's records form one group, and the
// post publishes group by group, calling the OnNotifPosted hook after each,
// exactly as one post event per emit did.
type notifPost struct {
	d       *Device
	records []channel.Notification
	ends    []int // group i is records[ends[i-1]:ends[i]]
	fire    func()
}

func (d *Device) newNotifPost() *notifPost {
	if n := len(d.postFree); n > 0 {
		p := d.postFree[n-1]
		d.postFree[n-1] = nil
		d.postFree = d.postFree[:n-1]
		return p
	}
	p := &notifPost{d: d}
	p.fire = func() {
		d := p.d
		if d.open == p {
			d.open = nil
		}
		start := 0
		for _, end := range p.ends {
			for _, r := range p.records[start:end] {
				d.notifQ.Push(r)
			}
			start = end
			if d.onNotifPosted != nil {
				d.onNotifPosted()
			}
		}
		p.records, p.ends = p.records[:0], p.ends[:0]
		d.postFree = append(d.postFree, p)
	}
	return p
}

// sealPost closes the open notification post when the device schedules an
// event delay from now that lands on the post's due time: a later emit
// must then schedule a post of its own, after that event, to keep the
// (time, seq) order of one post per emit.
func (d *Device) sealPost(delay sim.Time) {
	if delay == d.cfg.NotifDelay {
		d.open = nil
	}
}

// NewDevice builds a device on the given simulation environment. The
// notifQ may be nil when no instrumented kernels will run (pure-baseline
// experiments).
func NewDevice(env *sim.Env, cfg Config, notifQ *channel.NotifQueue) *Device {
	nq := cfg.EffectiveQueues()
	d := &Device{
		env:    env,
		cfg:    cfg,
		sms:    make([]smState, cfg.NumSMs),
		queues: make([]hwQueue, nq),
		notifQ: notifQ,
	}
	d.freeBlocks = cfg.NumSMs * cfg.SM.MaxBlocks
	d.freeThreads = cfg.NumSMs * cfg.SM.MaxThreads
	d.aggGroup = max(cfg.AggGroup, 1)
	d.kickFn = func() {
		d.scheduled = false
		d.schedulePass()
	}
	if rec := trace.FromEnv(env); rec != nil {
		d.rec = rec
		proc := rec.Process("GPU " + cfg.Name)
		d.smTracks = make([]trace.TrackID, cfg.NumSMs)
		d.smCounters = make([]trace.CounterID, cfg.NumSMs)
		for i := range d.smTracks {
			d.smTracks[i] = rec.Thread(proc, "SM "+strconv.Itoa(i))
			d.smCounters[i] = rec.Counter(proc, "sm"+strconv.Itoa(i)+" occupancy")
		}
		d.qTracks = make([]trace.TrackID, nq)
		d.qSeries = make([]string, nq)
		for i := range d.qTracks {
			d.qTracks[i] = rec.Thread(proc, "HWQ "+strconv.Itoa(i))
			d.qSeries[i] = "q" + strconv.Itoa(i)
		}
		d.qDepth = rec.Counter(proc, "hwq depth")
	}
	if mt := telemetry.FromEnv(env); mt != nil {
		d.mt = mt
		d.mtThreads = mt.Gauge("gpu/active_threads")
		d.mtBlocks = mt.Gauge("gpu/active_blocks")
		d.mtQDepth = mt.Gauge("gpu/hwq_depth")
	}
	return d
}

// traceSM samples SM i's occupancy counters (blocks/threads/regs/smem)
// into the recorder and the device-wide occupancy gauges into the meter;
// nil-safe on both.
func (d *Device) traceSM(i int) {
	now := d.env.Now()
	if d.rec != nil {
		sm := &d.sms[i]
		c := d.smCounters[i]
		d.rec.Sample(c, "blocks", now, float64(sm.blocks))
		d.rec.Sample(c, "threads", now, float64(sm.threads))
		d.rec.Sample(c, "regs", now, float64(sm.regs))
		d.rec.Sample(c, "smem", now, float64(sm.shmem))
	}
	if d.mt != nil {
		d.mt.Set(d.mtThreads, now, float64(d.threadsInUse))
		d.mt.Set(d.mtBlocks, now, float64(d.resident))
	}
}

// traceQueueDepth samples hardware queue q's depth into the recorder and
// the aggregate backlog gauge into the meter; nil-safe on both.
func (d *Device) traceQueueDepth(q int) {
	now := d.env.Now()
	if d.rec != nil {
		d.rec.Sample(d.qDepth, d.qSeries[q], now, float64(d.queues[q].depth()))
	}
	if d.mt != nil {
		d.mt.Set(d.mtQDepth, now, float64(d.queued))
	}
}

// smSpans returns the kernel slices recorded on each SM's track (nil
// without a recorder).
func (d *Device) smSpans() [][]trace.SpanView {
	if d.rec == nil {
		return nil
	}
	spans := make([][]trace.SpanView, len(d.smTracks))
	for i, t := range d.smTracks {
		spans[i] = d.rec.TrackSpans(t)
	}
	return spans
}

// Makespan returns the end of the last kernel slice on the device's SM
// tracks: zero without a recorder or before any block ran.
func (d *Device) Makespan() sim.Time {
	var end sim.Time
	for _, sm := range d.smSpans() {
		for _, s := range sm {
			end = max(end, s.End)
		}
	}
	return end
}

// Timeline draws the recorded SM schedule as ASCII, one row per SM and one
// column per quantum, each kernel slice labelled by the first rune of its
// job tag ('#' when untagged). It is the textual analogue of Figure 1, and
// empty without a recorder or before any block ran.
func (d *Device) Timeline(quantum sim.Time) string {
	span := d.Makespan()
	if quantum <= 0 || span == 0 {
		return ""
	}
	cols := int((span + quantum - 1) / quantum)
	var b strings.Builder
	for i, sm := range d.smSpans() {
		row := []rune(strings.Repeat(".", cols))
		for _, s := range sm {
			label := '#'
			if job, _ := s.Arg("job").(string); job != "" {
				label = []rune(job)[0]
			}
			for c := int(s.Start / quantum); c < cols && sim.Time(c)*quantum < s.End; c++ {
				row[c] = label
			}
		}
		fmt.Fprintf(&b, "SM%-2d |%s|\n", i, string(row))
	}
	return b.String()
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Env returns the simulation environment the device runs on.
func (d *Device) Env() *sim.Env { return d.env }

// NumQueues returns the effective hardware queue count.
func (d *Device) NumQueues() int { return len(d.queues) }

// OnNotifPosted registers a callback invoked after instrumented
// notifications land in the notifQ (the dispatcher's wakeup).
func (d *Device) OnNotifPosted(fn func()) { d.onNotifPosted = fn }

// SetNotifFault installs (or, with nil, removes) a per-record notification
// fault: the hook is consulted once per notifQ record in emission order and
// its verdict decides how many copies are published. Deterministic hooks
// keep the simulation reproducible.
func (d *Device) SetNotifFault(fn channel.NotifFault) { d.notifFault = fn }

// OnTopologyChange registers a callback invoked with the online-SM count
// after every RetireSM/RestoreSM — the dispatcher's cue to shrink or regrow
// its occupancy mirror.
func (d *Device) OnTopologyChange(fn func(online int)) { d.onTopology = fn }

// OnlineSMs returns the number of SMs currently accepting new blocks.
func (d *Device) OnlineSMs() int { return d.cfg.NumSMs - d.offlineSMs }

// RetireSM takes SM i out of service: it accepts no further thread blocks,
// while blocks already resident drain normally (ECC retirement semantics —
// the driver quarantines the SM, it does not kill running work). Reports
// false if the SM was already offline.
func (d *Device) RetireSM(i int) bool {
	if i < 0 || i >= len(d.sms) || d.sms[i].offline {
		return false
	}
	d.sms[i].offline = true
	d.offlineSMs++
	d.freeBlocks -= d.cfg.SM.MaxBlocks - d.sms[i].blocks
	d.freeThreads -= d.cfg.SM.MaxThreads - d.sms[i].threads
	d.stats.SMsRetired++
	if d.rec != nil {
		d.rec.InstantArgs(d.smTracks[i], "sm-retired", "fault", d.env.Now(),
			trace.Int("resident_blocks", int64(d.sms[i].blocks)))
	}
	if d.onTopology != nil {
		d.onTopology(d.OnlineSMs())
	}
	return true
}

// RestoreSM returns a retired SM to service and kicks the block scheduler
// (queued work may now fit). Reports false if the SM was not offline.
func (d *Device) RestoreSM(i int) bool {
	if i < 0 || i >= len(d.sms) || !d.sms[i].offline {
		return false
	}
	d.sms[i].offline = false
	d.offlineSMs--
	d.freeBlocks += d.cfg.SM.MaxBlocks - d.sms[i].blocks
	d.freeThreads += d.cfg.SM.MaxThreads - d.sms[i].threads
	d.stats.SMsRestored++
	if d.rec != nil {
		d.rec.Instant(d.smTracks[i], "sm-restored", "fault", d.env.Now())
	}
	if d.onTopology != nil {
		d.onTopology(d.OnlineSMs())
	}
	d.kick()
	return true
}

// Stats returns a snapshot of device counters with utilization integrated
// up to the current instant.
func (d *Device) Stats() Stats {
	d.accrueUtil()
	return d.stats
}

// Utilization returns the average fraction of thread slots occupied over
// [0, now].
func (d *Device) Utilization() float64 {
	d.accrueUtil()
	elapsed := float64(d.env.Now())
	if elapsed == 0 {
		return 0
	}
	return d.stats.ThreadBusyNs / (elapsed * float64(d.cfg.SM.MaxThreads*d.cfg.NumSMs))
}

// TotalQueued returns the number of launches across all hardware queues.
func (d *Device) TotalQueued() int { return d.queued }

// FreeThreads returns the number of unoccupied thread slots on online
// SMs; a retired SM's idle slots accept no block and do not count.
func (d *Device) FreeThreads() int { return d.freeThreads }

// ResidentBlocks returns the number of thread blocks currently resident.
func (d *Device) ResidentBlocks() int { return d.resident }

// Submit enqueues a launch onto hardware queue q. The launch must not have
// been submitted before. Submission models the driver-side launch cost
// (Config.LaunchOverhead) before the kernel becomes visible to the queue.
func (d *Device) Submit(q int, l *Launch) {
	if q < 0 || q >= len(d.queues) {
		panic(fmt.Sprintf("gpu: submit to queue %d of %d", q, len(d.queues)))
	}
	if l.state != LaunchQueued || l.toFinish != 0 {
		panic("gpu: launch resubmitted")
	}
	if err := l.Spec.Validate(); err != nil {
		panic("gpu: " + err.Error())
	}
	if !l.Spec.FitsSM(d.cfg.SM) {
		panic(fmt.Sprintf("gpu: kernel %q can never fit an SM", l.Spec.Name))
	}
	l.toPlace = l.Spec.Blocks
	l.toFinish = l.Spec.Blocks
	l.placedNext = min(d.aggGroup, l.Spec.Blocks)
	l.completedNext = l.placedNext
	l.dev = d
	d.stats.KernelsSubmitted++
	if d.cfg.LaunchOverhead > 0 {
		d.env.DoCallAfter(d.cfg.LaunchOverhead, launchEnqueue, l, uint64(q))
	} else {
		d.enqueueLaunch(l, q)
	}
}

// launchEnqueue is the launch-overhead expiry event: ctx is the Launch and
// arg its hardware queue. A package-level EventFn, so Submit schedules the
// driver-side delay without allocating a per-launch closure.
var launchEnqueue sim.EventFn = func(ctx any, arg uint64) {
	l := ctx.(*Launch)
	l.dev.enqueueLaunch(l, int(arg))
}

func (d *Device) enqueueLaunch(l *Launch, q int) {
	l.queuedAt = d.env.Now()
	d.queues[q].push(l)
	d.queued++
	d.occ |= 1 << uint(q)
	d.traceQueueDepth(q)
	d.kick()
}

// Kick requests a scheduling pass (e.g., after a launch's dependencies
// become satisfied). Multiple kicks coalesce into one pass per instant.
func (d *Device) Kick() { d.kick() }

func (d *Device) kick() {
	if d.scheduled {
		return
	}
	d.scheduled = true
	d.sealPost(0)
	d.env.After(0, d.kickFn)
}

// schedulePass is the block scheduler: it repeatedly scans the hardware
// queues round-robin, placing blocks from ready head launches onto SMs
// until nothing more fits. Per §2.1 it never looks past a queue's head.
// When the queue count fits a word, the scan walks the occupancy bitmask
// instead of all nq slots — empty queues contribute nothing to a scan, so
// skipping them (in the same cursor-rotated order) is behavior-identical.
func (d *Device) schedulePass() {
	nq := len(d.queues)
	d.pass++
	for {
		// Empty-device fast path: a scan over nq queues with every head nil
		// makes no progress and only advances the fairness cursor — do
		// exactly that (identical cursor evolution, no scan). Most kicks
		// after a completion wave land here.
		if d.queued == 0 {
			d.rrCursor = (d.rrCursor + 1) % nq
			return
		}
		progressed := false
		if nq <= 64 {
			// Queues can only empty mid-pass (popHead), never fill — a
			// stale set bit is re-checked harmlessly by scanQueue.
			mask := uint64(1)<<uint(d.rrCursor) - 1
			w := d.occ
			for seg := w &^ mask; seg != 0; seg &= seg - 1 {
				if d.scanQueue(bits.TrailingZeros64(seg)) {
					progressed = true
				}
			}
			for seg := w & mask; seg != 0; seg &= seg - 1 {
				if d.scanQueue(bits.TrailingZeros64(seg)) {
					progressed = true
				}
			}
		} else {
			for i := 0; i < nq; i++ {
				if d.scanQueue((d.rrCursor + i) % nq) {
					progressed = true
				}
			}
		}
		d.rrCursor = (d.rrCursor + 1) % nq
		if !progressed {
			return
		}
	}
}

// scanQueue examines one hardware queue's head launch, placing blocks when
// it is ready, and reports whether the pass made progress on this queue.
func (d *Device) scanQueue(qi int) bool {
	q := &d.queues[qi]
	head := q.head()
	if head == nil {
		return false
	}
	if head.Ready != nil && !head.Ready() {
		// Queue stalls on an unready head. If anything is queued
		// behind it, that is head-of-line blocking.
		if q.depth() > 1 {
			d.stats.HoLBlockedKernels++
			if d.rec != nil {
				d.rec.InstantArgs(d.qTracks[qi], "hol-blocked", "sched", d.env.Now(),
					trace.Str("head", head.Spec.Name), trace.Int("behind", int64(q.depth()-1)))
			}
		}
		return false
	}
	if head.fullPass == d.pass {
		// Earlier in this pass placeBlocks filled every SM this head fits
		// and left blocks unplaced. Placement only consumes capacity
		// within a pass, so another attempt would place nothing; keep the
		// empty attempt's one side effect.
		d.smCursor = (d.smCursor + 1) % len(d.sms)
		return false
	}
	progressed := d.placeBlocks(head) > 0
	if head.toPlace == 0 {
		// Fully placed: the launch leaves the queue, exposing the
		// next kernel (if any) to the scheduler.
		head.state = LaunchRunning
		q.popHead()
		d.queued--
		if q.count == 0 {
			d.occ &^= 1 << uint(qi)
		}
		if d.rec != nil {
			// The launch's residence in the hardware queue, from
			// enqueue to full placement.
			d.rec.SpanArgs(d.qTracks[qi], head.Spec.Name, "hwqueue",
				head.queuedAt, d.env.Now(),
				trace.Str("job", head.JobTag), trace.Int("kernel_id", int64(head.KernelID)))
		}
		d.traceQueueDepth(qi)
		if head.OnAllPlaced != nil {
			d.sealPost(0)
			d.env.After(0, head.OnAllPlaced)
		}
		progressed = true
	}
	return progressed
}

// smPlacement counts the blocks placed on one SM during a wave, in
// first-placement order. A slice (not a map) so that the completion and
// notification events below are scheduled in a deterministic order —
// map iteration would randomize same-instant event ordering run to run,
// which both perturbs the simulation subtly and makes trace output
// irreproducible.
type smPlacement struct {
	sm, n int
}

// smCap snapshots one eligible SM's remaining block capacity during a wave.
type smCap struct {
	sm, cap, got int
}

// placeBlocks places as many blocks of l as currently fit, spreading them
// across SMs round-robin. It returns the number placed and schedules their
// completions and notifications. When blocks remain unplaced, every SM
// they fit on is full, and l.fullPass records the pass.
func (d *Device) placeBlocks(l *Launch) int {
	_, th, rg, sh := l.Spec.BlockCost()
	nsm := len(d.sms)
	// Saturation fast path: per-SM free capacity never exceeds the
	// device-wide aggregate, so an aggregate too small for one block
	// proves the scan below would come up empty. The empty wave's one
	// side effect — the placement cursor advancing a step — is kept.
	if d.freeBlocks == 0 || (th > 0 && d.freeThreads < th) {
		d.smCursor = (d.smCursor + 1) % nsm
		return 0
	}
	// Snapshot each SM's capacity for this kernel's block shape, in cursor
	// order. Capacities are fixed for the whole wave (placement on one SM
	// never consumes another's resources), which admits a closed-form
	// round-robin fill instead of the historical one-block-per-SM-per-round
	// loop. The outcome is bit-identical: the old loop gave one block per
	// round to every SM still below its cap, stopping mid-round in cursor
	// order when the kernel ran out of blocks — exactly the water-filling
	// levels computed below.
	// The scan first rejects SMs without room for one block's threads (the
	// limit that binds on the workloads here), divides only when a
	// resource limit actually binds below the running block cap (a
	// multiply-compare detects that first), and skips block-saturated SMs
	// before touching the other limits.
	maxB, maxT, maxR, maxS := d.cfg.SM.MaxBlocks, d.cfg.SM.MaxThreads, d.cfg.SM.MaxRegisters, d.cfg.SM.MaxSharedMem
	caps := d.capScratch[:0]
	minRem := 0
	smi := d.smCursor
	for i := 0; i < nsm; i++ {
		idx := smi
		smi++
		if smi == nsm {
			smi = 0
		}
		sm := &d.sms[idx]
		if sm.offline || maxT-sm.threads < th {
			continue
		}
		c := maxB - sm.blocks
		if c <= 0 {
			continue
		}
		if rem := maxT - sm.threads; rem < c*th {
			c = rem / th
		}
		if rg > 0 {
			if rem := maxR - sm.regs; rem < c*rg {
				c = rem / rg
			}
		}
		if sh > 0 {
			if rem := maxS - sm.shmem; rem < c*sh {
				c = rem / sh
			}
		}
		if c > 0 {
			if len(caps) == 0 || c < minRem {
				minRem = c
			}
			caps = append(caps, smCap{sm: idx, cap: c})
		}
	}
	d.capScratch = caps

	// Water-fill: give every still-eligible SM the same number of blocks
	// per level, peeling off SMs as they reach capacity; a final partial
	// round hands one block each to the leading unsaturated SMs in cursor
	// order. The level count is bounded by the number of distinct capacity
	// values, so this is O(levels × SMs) instead of O(blocks × SMs). The
	// first level's k/minRem come from the snapshot scan above; later
	// levels (rare: only when some SM saturates mid-fill) rescan.
	remaining := l.toPlace
	k := len(caps)
	for remaining > 0 {
		if k == 0 {
			break
		}
		if remaining < k {
			for j := range caps {
				if remaining == 0 {
					break
				}
				if caps[j].cap-caps[j].got > 0 {
					caps[j].got++
					remaining--
				}
			}
			break
		}
		give := remaining / k
		if give > minRem {
			give = minRem
		}
		for j := range caps {
			if caps[j].cap-caps[j].got > 0 {
				caps[j].got += give
			}
		}
		remaining -= give * k
		k = 0
		for j := range caps {
			if r := caps[j].cap - caps[j].got; r > 0 {
				if k == 0 || r < minRem {
					minRem = r
				}
				k++
			}
		}
	}

	totalPlaced := l.toPlace - remaining
	if remaining > 0 {
		l.fullPass = d.pass
	}
	// perSM lists the wave's placements in first-placement (cursor) order —
	// identical to the order the per-block loop discovered SMs — so the
	// completion/notification emission below stays deterministic.
	perSM := d.perSM[:0]
	if totalPlaced > 0 {
		d.accrueUtil()
		for _, e := range caps {
			if e.got == 0 {
				continue
			}
			sm := &d.sms[e.sm]
			sm.blocks += e.got
			sm.threads += e.got * th
			sm.regs += e.got * rg
			sm.shmem += e.got * sh
			d.threadsInUse += e.got * th
			d.resident += e.got
			d.freeBlocks -= e.got
			d.freeThreads -= e.got * th
			perSM = append(perSM, smPlacement{sm: e.sm, n: e.got})
		}
		d.stats.BlocksPlaced += uint64(totalPlaced)
		l.toPlace = remaining
		l.state = LaunchPlacing
	}
	d.smCursor = (d.smCursor + 1) % nsm
	d.perSM = perSM
	if totalPlaced == 0 {
		return 0
	}
	now := d.env.Now()
	// The wave's completions are all due at now+BlockDuration, and nothing
	// else placed here is scheduled for that instant unless a notification
	// post (due at now+NotifDelay) lands on it too. Otherwise no event can
	// fall between the per-SM completions in (time, seq) order, so one
	// event completing every SM in placement order is exact. When the two
	// delays coincide, posts and completions interleave, and each SM keeps
	// its own event.
	perSMEvents := l.Spec.BlockDuration == d.cfg.NotifDelay
	var wave *waveDone
	for _, pl := range perSM {
		smi, n := pl.sm, pl.n
		if d.rec != nil {
			d.rec.SpanArgs(d.smTracks[smi], l.Spec.Name, "kernel",
				now, now+l.Spec.BlockDuration,
				trace.Str("job", l.JobTag), trace.Int("kernel_id", int64(l.KernelID)),
				trace.Int("blocks", int64(n)))
		}
		d.traceSM(smi)
		d.emitNotifs(l, channel.Placement, uint8(smi), n)
		if wave == nil {
			wave = d.newWaveDone(l)
		}
		wave.sms = append(wave.sms, pl)
		if perSMEvents {
			d.sealPost(l.Spec.BlockDuration)
			d.env.DoCallAfter(l.Spec.BlockDuration, waveComplete, wave, 0)
			wave = nil
		}
	}
	if wave != nil {
		d.env.DoCallAfter(l.Spec.BlockDuration, waveComplete, wave, 0)
	}
	return totalPlaced
}

// completeBlocks returns the resources of n blocks of l on SM smi and
// advances the launch's completion accounting.
func (d *Device) completeBlocks(l *Launch, smi, n int) {
	_, th, rg, sh := l.Spec.BlockCost()
	d.accrueUtil()
	sm := &d.sms[smi]
	sm.blocks -= n
	sm.threads -= n * th
	sm.regs -= n * rg
	sm.shmem -= n * sh
	d.threadsInUse -= n * th
	d.resident -= n
	if !sm.offline {
		// A retired SM's draining blocks free no usable capacity; its
		// residual share was already deducted wholesale at retirement.
		d.freeBlocks += n
		d.freeThreads += n * th
	}
	if sm.blocks < 0 || sm.threads < 0 || sm.regs < 0 || sm.shmem < 0 {
		panic("gpu: SM resource accounting went negative")
	}
	d.traceSM(smi)
	l.toFinish -= n
	d.stats.BlocksCompleted += uint64(n)
	d.emitNotifs(l, channel.Completion, uint8(smi), n)
	if l.toFinish == 0 {
		l.state = LaunchDone
		l.completedAt = d.env.Now()
		d.stats.KernelsCompleted++
		if l.OnComplete != nil {
			d.sealPost(0)
			d.env.After(0, l.OnComplete)
		}
	}
	// Freed resources may unblock queue heads.
	d.kick()
}

// emitNotifs advances the launch's kernel-wide notification counters by n
// blocks on SM sm and posts aggregated notifQ records (§5.2, Figure 6):
// the instrumented kernel's designated threads maintain one atomic counter
// per direction, and a record is written every AggGroup-th block plus once
// at the final block. Between crossings, up to AggGroup−1 blocks are
// placed/finished but not yet visible to the dispatcher — the accepted
// cost of aggregation. The records join the open post when it comes from
// the same device event, and otherwise start a new one.
func (d *Device) emitNotifs(l *Launch, t channel.NotifType, sm uint8, n int) {
	if !l.Instrumented || d.notifQ == nil {
		return
	}
	count, next := &l.placedCount, &l.placedNext
	if t == channel.Completion {
		count, next = &l.completedCount, &l.completedNext
	}
	*count += n
	if *count < *next {
		return
	}
	// Blocks reported so far: a multiple of the group, one group below
	// next, or, once next is capped at the grid size, the last multiple
	// below it.
	group, total := d.aggGroup, l.Spec.Blocks
	notified := *next - group
	if *next == total {
		notified = (total - 1) / group * group
	}
	newNotified := total
	if *count < total {
		newNotified = *count / group * group
	}
	*next = min(newNotified+group, total)
	delta := newNotified - notified

	p := d.open
	if p == nil || d.openStep != d.env.Steps() {
		p = d.newNotifPost()
	}
	start := len(p.records)
	for delta > 0 {
		g := min(delta, group)
		rec := channel.Pack(t, sm, uint16(g), l.KernelID)
		copies := channel.NotifKeep
		if d.notifFault != nil {
			copies = d.notifFault(rec)
		}
		switch {
		case copies <= channel.NotifDrop:
			d.stats.NotifsDropped++
		case copies >= channel.NotifDup:
			d.stats.NotifsDuplicated++
			p.records = append(p.records, rec, rec)
		default:
			p.records = append(p.records, rec)
		}
		delta -= g
	}
	switch {
	case len(p.records) == start:
		// Every record was dropped: nothing crosses the channel.
		if start == 0 {
			d.postFree = append(d.postFree, p)
		}
	case p == d.open:
		p.ends = append(p.ends, len(p.records))
	default:
		p.ends = append(p.ends, len(p.records))
		d.env.After(d.cfg.NotifDelay, p.fire)
		d.open, d.openStep = p, d.env.Steps()
	}
}

// accrueUtil integrates thread occupancy up to now.
func (d *Device) accrueUtil() {
	now := d.env.Now()
	if now > d.lastUtilAt {
		d.stats.ThreadBusyNs += float64(d.threadsInUse) * float64(now-d.lastUtilAt)
		d.lastUtilAt = now
	}
}

// CheckInvariants panics if any SM's accounting is out of bounds, or if the
// running resident-block and queued-launch counts disagree with the SMs
// and queues; tests call it between steps.
func (d *Device) CheckInvariants() {
	blocks, queued := 0, 0
	for i := range d.queues {
		queued += d.queues[i].depth()
	}
	for i := range d.sms {
		sm := &d.sms[i]
		blocks += sm.blocks
		if sm.blocks < 0 || sm.blocks > d.cfg.SM.MaxBlocks ||
			sm.threads < 0 || sm.threads > d.cfg.SM.MaxThreads ||
			sm.regs < 0 || sm.regs > d.cfg.SM.MaxRegisters ||
			sm.shmem < 0 || sm.shmem > d.cfg.SM.MaxSharedMem {
			panic(fmt.Sprintf("gpu: SM %d out of bounds: %+v", i, *sm))
		}
	}
	if blocks != d.resident || queued != d.queued {
		panic(fmt.Sprintf("gpu: %d resident blocks and %d queued launches counted as %d and %d",
			blocks, queued, d.resident, d.queued))
	}
}
