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
	// HoLBlockedKernels counts queue scans that found an unready head
	// with another launch queued behind it (head-of-line blocking
	// indicator).
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
	// room has one bit per SM, SM i at bit i%64 of word i/64: the bit is
	// set exactly when the SM is online with a free block slot and a free
	// thread. An SM without one can take no block of any kernel, so the
	// busy-device scan visits only the set bits (DESIGN.md §15.7).
	room []uint64

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
	// perSM is placeBlocks' per-wave scratch, handed to the wave's
	// completion event and replaced by that event's recycled slice;
	// capScratch holds the eligible-SM capacity snapshot for the wave, and
	// capHist counts those SMs by capacity (capHist[c] SMs can take c more
	// blocks), so the fill level has a closed form.
	perSM      []smPlacement
	capScratch []smCap
	capHist    []int
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
}

// waveDone is a pooled wave-completion event: the (SM, blocks) pairs that
// one placeBlocks call put on the device, n blocks in all, completed
// together when the kernel's block duration elapses. DESIGN.md §15 gives
// the argument that firing them from one event reproduces the per-SM event
// order exactly.
type waveDone struct {
	d   *Device
	l   *Launch
	n   int
	sms []smPlacement
}

func (d *Device) newWaveDone(l *Launch, n int) *waveDone {
	var w *waveDone
	if k := len(d.waveFree); k > 0 {
		w = d.waveFree[k-1]
		d.waveFree[k-1] = nil
		d.waveFree = d.waveFree[:k-1]
	} else {
		w = &waveDone{d: d}
	}
	w.l, w.n = l, n
	return w
}

// waveComplete is the wave-completion event: ctx is the *waveDone.
var waveComplete sim.EventFn = func(ctx any, _ uint64) {
	w := ctx.(*waveDone)
	w.d.completeWave(w)
	w.l, w.sms = nil, w.sms[:0]
	w.d.waveFree = append(w.d.waveFree, w)
}

// completeWave returns the resources of a wave's blocks and advances the
// launch's completion accounting in one pass over its SMs. It does what
// completing the SMs one at a time in placement order did (DESIGN.md
// §15.5): each SM's occupancy samples and notification records are written
// after that SM's blocks leave, and the first SM's kick precedes OnComplete
// unless the wave used one SM. Samples are written only when something
// observes the device. A wave that reaches no notification boundary only
// counts its blocks; otherwise notify writes records for the SMs whose
// blocks cross one (DESIGN.md §15.7).
func (d *Device) completeWave(w *waveDone) {
	l, n := w.l, w.n
	_, th, rg, sh := l.Spec.BlockCost()
	d.accrueUtil()
	counting := l.NotifGroup > 0 && d.notifQ != nil
	observed := d.rec != nil || d.mt != nil
	boundary := counting && l.completed.count+n >= l.completed.next
	freed := 0
	for i, pl := range w.sms {
		sm := &d.sms[pl.sm]
		sm.blocks -= pl.n
		sm.threads -= pl.n * th
		sm.regs -= pl.n * rg
		sm.shmem -= pl.n * sh
		if sm.blocks < 0 || sm.threads < 0 || sm.regs < 0 || sm.shmem < 0 {
			panic("gpu: SM resource accounting went negative")
		}
		if !sm.offline {
			// A retired SM's draining blocks free no usable capacity; its
			// residual share was already deducted wholesale at retirement.
			// An online SM that freed a block has a free slot and, as every
			// block holds a thread, a free thread.
			freed += pl.n
			d.setRoom(pl.sm)
		}
		if observed {
			// The occupancy gauges see the running totals, as they did when
			// each SM completed on its own.
			d.threadsInUse -= pl.n * th
			d.resident -= pl.n
			d.traceSM(pl.sm)
		}
		if boundary {
			d.notify(l, channel.Completion, &l.completed, pl.sm, pl.n)
		}
		if i == 0 && len(w.sms) > 1 {
			// Freed resources may unblock queue heads. A wave on several
			// SMs kicked after its first SM, before its last SM scheduled
			// OnComplete.
			d.kick()
		}
	}
	if !observed {
		d.threadsInUse -= n * th
		d.resident -= n
	}
	if counting && !boundary {
		l.completed.count += n
	}
	d.freeBlocks += freed
	d.freeThreads += freed * th
	l.toFinish -= n
	d.stats.BlocksCompleted += uint64(n)
	if l.toFinish == 0 {
		l.state = LaunchDone
		d.stats.KernelsCompleted++
		if l.OnComplete != nil {
			d.sealPost(0)
			d.env.After(0, l.OnComplete)
		}
	}
	// A one-SM wave kicked after scheduling OnComplete.
	d.kick()
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
	d.room = make([]uint64, (cfg.NumSMs+63)/64)
	for i := range d.sms {
		d.updateRoom(i)
	}
	d.capHist = make([]int, max(cfg.SM.MaxBlocks, 0)+1)
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

// hasRoom reports whether SM i is online with a free block slot and a free
// thread: the definition of its room bit.
func (d *Device) hasRoom(i int) bool {
	sm := &d.sms[i]
	return !sm.offline && sm.blocks < d.cfg.SM.MaxBlocks && sm.threads < d.cfg.SM.MaxThreads
}

// updateRoom sets or clears SM i's room bit to match its state.
func (d *Device) updateRoom(i int) {
	if d.hasRoom(i) {
		d.setRoom(i)
	} else {
		d.clearRoom(i)
	}
}

func (d *Device) setRoom(i int)   { d.room[i>>6] |= 1 << uint(i&63) }
func (d *Device) clearRoom(i int) { d.room[i>>6] &^= 1 << uint(i&63) }

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
	d.clearRoom(i)
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
	d.updateRoom(i)
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
	l.placed.next = min(l.NotifGroup, l.Spec.Blocks)
	l.completed.next = l.placed.next
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
		if head.onAllPlaced != nil {
			d.sealPost(0)
			d.env.After(0, head.onAllPlaced)
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
	sm, cap int
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
	// never consumes another's resources), so the round-robin fill — one
	// block per round to every SM still below its cap, stopping mid-round
	// in cursor order when the kernel runs out of blocks — has a closed
	// form: every SM gets min(cap, level), and the leftover goes one block
	// each to the leading SMs with room above the level (DESIGN.md §15.5).
	caps := d.capScratch[:0]
	var level, extra int
	maxB, maxT := d.cfg.SM.MaxBlocks, d.cfg.SM.MaxThreads
	if d.resident == 0 && d.offlineSMs == 0 {
		// Idle device: every SM is empty and online, so every capacity is
		// the kernel's occupancy limit, and the level is an even split.
		c := l.Spec.MaxResidentPerSM(d.cfg.SM)
		for i, smi := 0, d.smCursor; i < nsm; i++ {
			caps = append(caps, smCap{sm: smi, cap: c})
			if smi++; smi == nsm {
				smi = 0
			}
		}
		level, extra = c, 0
		if l.toPlace < nsm*c {
			level, extra = l.toPlace/nsm, l.toPlace%nsm
		}
	} else {
		// The scan visits only the SMs whose room bit is set, in cursor
		// order: the bits at or above the cursor word by word to the end,
		// then those below it from word 0. Every SM with a nonzero capacity
		// has its bit set, so the caps list is the one a scan over all SMs
		// builds (DESIGN.md §15.7). It first rejects SMs without room for
		// one block's threads (the limit that binds on the workloads here),
		// and divides only when a resource limit actually binds below the
		// running block cap (a multiply-compare detects that first).
		maxR, maxS := d.cfg.SM.MaxRegisters, d.cfg.SM.MaxSharedMem
		hist := d.capHist
		clear(hist)
		sum := 0
		room := d.room
		nw, cw := len(room), d.smCursor>>6
		above := ^uint64(0) << uint(d.smCursor&63)
		for k := 0; k <= nw; k++ {
			wi := cw + k
			if wi >= nw {
				wi -= nw
			}
			word := room[wi]
			switch k {
			case 0:
				word &= above
			case nw:
				word &^= above
			}
			for ; word != 0; word &= word - 1 {
				idx := wi<<6 | bits.TrailingZeros64(word)
				sm := &d.sms[idx]
				if maxT-sm.threads < th {
					continue
				}
				c := maxB - sm.blocks
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
					caps = append(caps, smCap{sm: idx, cap: c})
					hist[c]++
					sum += c
				}
			}
		}
		level, extra = waterLevel(hist, len(caps), sum, l.toPlace)
	}
	d.capScratch = caps

	// perSM lists the wave's placements in cursor order, so the completion
	// and notification emission below stays deterministic.
	perSM := d.perSM[:0]
	total := 0
	for _, e := range caps {
		got := levelShare(e.cap, level, &extra)
		if got == 0 {
			continue
		}
		sm := &d.sms[e.sm]
		sm.blocks += got
		sm.threads += got * th
		sm.regs += got * rg
		sm.shmem += got * sh
		if sm.blocks >= maxB || sm.threads >= maxT {
			d.clearRoom(e.sm)
		}
		total += got
		perSM = append(perSM, smPlacement{sm: e.sm, n: got})
	}
	d.smCursor = (d.smCursor + 1) % nsm
	if total < l.toPlace {
		l.fullPass = d.pass
	}
	if total == 0 {
		return 0
	}
	d.accrueUtil()
	d.threadsInUse += total * th
	d.resident += total
	d.freeBlocks -= total
	d.freeThreads -= total * th
	d.stats.BlocksPlaced += uint64(total)
	l.toPlace -= total
	l.state = LaunchPlacing

	// A wave that reaches no notification boundary only counts its blocks;
	// one that reaches a boundary calls notify SM by SM, and only the SMs
	// whose blocks cross one write records (DESIGN.md §15.7). Spans and
	// samples are written only when something observes the device.
	counting := l.NotifGroup > 0 && d.notifQ != nil
	observed := d.rec != nil || d.mt != nil
	boundary := counting && l.placed.count+total >= l.placed.next
	if counting && !boundary {
		l.placed.count += total
	}
	now := d.env.Now()
	// The wave's completions are all due at now+BlockDuration, and nothing
	// else placed here is scheduled for that instant unless a notification
	// post (due at now+NotifDelay) lands on it too. Otherwise no event can
	// fall between the per-SM completions in (time, seq) order, so one
	// event completing every SM in placement order is exact. When the two
	// delays coincide, posts and completions interleave, and each SM keeps
	// its own event.
	if l.Spec.BlockDuration == d.cfg.NotifDelay {
		for _, pl := range perSM {
			if observed {
				d.recordPlacement(l, pl, now)
			}
			if boundary {
				d.notify(l, channel.Placement, &l.placed, pl.sm, pl.n)
			}
			w := d.newWaveDone(l, pl.n)
			w.sms = append(w.sms, pl)
			d.sealPost(l.Spec.BlockDuration)
			d.env.DoCallAfter(l.Spec.BlockDuration, waveComplete, w, 0)
		}
		d.perSM = perSM
		return total
	}
	if observed || boundary {
		for _, pl := range perSM {
			if observed {
				d.recordPlacement(l, pl, now)
			}
			if boundary {
				d.notify(l, channel.Placement, &l.placed, pl.sm, pl.n)
			}
		}
	}
	w := d.newWaveDone(l, total)
	w.sms, d.perSM = perSM, w.sms[:0]
	d.env.DoCallAfter(l.Spec.BlockDuration, waveComplete, w, 0)
	return total
}

// recordPlacement records one SM's share of a wave placed at now: its
// kernel slice and its occupancy samples.
func (d *Device) recordPlacement(l *Launch, pl smPlacement, now sim.Time) {
	if d.rec != nil {
		d.rec.SpanArgs(d.smTracks[pl.sm], l.Spec.Name, "kernel",
			now, now+l.Spec.BlockDuration,
			trace.Str("job", l.JobTag), trace.Int("kernel_id", int64(l.KernelID)),
			trace.Int("blocks", int64(pl.n)))
	}
	d.traceSM(pl.sm)
}

// waterLevel returns the level of a round-robin fill of toPlace blocks over
// k SMs whose spare capacities are counted in hist (hist[c] SMs can take c
// more blocks, hist[0] is zero, and the capacities sum to sum): the highest
// level L with Σ min(cap, L) ≤ toPlace, and the extra blocks left for the
// leading SMs with capacity above L, one each. When everything fits, L is
// the largest capacity hist can count and there is no extra.
func waterLevel(hist []int, k, sum, toPlace int) (level, extra int) {
	if toPlace >= sum {
		return len(hist) - 1, 0
	}
	// filled is Σ min(cap, level) and above counts the SMs with cap > level,
	// so raising the level by one places above more blocks. It stops below
	// the largest capacity, since filled < sum there.
	filled, above := 0, k
	for filled+above <= toPlace {
		filled += above
		level++
		above -= hist[level]
	}
	return level, toPlace - filled
}

// levelShare returns an SM's share of a wave filled to level: min(c, level),
// plus one of the extra blocks while any remain and the SM has room above
// the level. Called on the SMs in cursor order, it hands the extras to the
// leading ones.
func levelShare(c, level int, extra *int) int {
	if c <= level {
		return c
	}
	if *extra > 0 {
		*extra--
		return level + 1
	}
	return level
}

// notify adds n blocks on SM sm to the launch's kernel-wide placement or
// completion count and calls emitNotifs when they reach the next record.
// For any other SM emitNotifs would only have counted them (DESIGN.md
// §15.7), so this is the same as calling it on every SM.
func (d *Device) notify(l *Launch, t channel.NotifType, c *notifCount, sm, n int) {
	if c.count+n < c.next {
		c.count += n
		return
	}
	d.emitNotifs(l, t, c, uint8(sm), n)
}

// emitNotifs advances c, the launch's kernel-wide counter in direction t,
// by n blocks on SM sm and posts aggregated notifQ records (§5.2, Figure 6):
// the instrumented kernel's designated threads maintain one atomic counter
// per direction, and a record is written every NotifGroup-th block plus
// once at the final block. Between crossings, up to NotifGroup−1 blocks are
// placed/finished but not yet visible to the dispatcher — the accepted
// cost of aggregation. The records join the open post when it comes from
// the same device event, and otherwise start a new one. The launch is
// instrumented and the device has a notifQ.
func (d *Device) emitNotifs(l *Launch, t channel.NotifType, c *notifCount, sm uint8, n int) {
	c.count += n
	if c.count < c.next {
		return
	}
	// Blocks reported so far: a multiple of the group, one group below
	// next, or, once next is capped at the grid size, the last multiple
	// below it.
	group, total := l.NotifGroup, l.Spec.Blocks
	notified := c.next - group
	if c.next == total {
		notified = (total - 1) / group * group
	}
	newNotified := total
	if c.count < total {
		newNotified = c.count / group * group
	}
	c.next = min(newNotified+group, total)
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
// running counts disagree with the SMs and queues: resident blocks and
// threads in use with the SMs' sums, free blocks and threads with the spare
// capacity of the online SMs, queued launches with the queue depths, and
// each room bit with hasRoom (no bit set past the last SM). Tests call it
// between steps.
func (d *Device) CheckInvariants() {
	blocks, threads, freeBlocks, freeThreads, queued := 0, 0, 0, 0, 0
	for i := range d.queues {
		queued += d.queues[i].depth()
	}
	for i := range d.sms {
		sm := &d.sms[i]
		blocks += sm.blocks
		threads += sm.threads
		if !sm.offline {
			freeBlocks += d.cfg.SM.MaxBlocks - sm.blocks
			freeThreads += d.cfg.SM.MaxThreads - sm.threads
		}
		if sm.blocks < 0 || sm.blocks > d.cfg.SM.MaxBlocks ||
			sm.threads < 0 || sm.threads > d.cfg.SM.MaxThreads ||
			sm.regs < 0 || sm.regs > d.cfg.SM.MaxRegisters ||
			sm.shmem < 0 || sm.shmem > d.cfg.SM.MaxSharedMem {
			panic(fmt.Sprintf("gpu: SM %d out of bounds: %+v", i, *sm))
		}
	}
	for i := range len(d.room) * 64 {
		set := d.room[i>>6]&(1<<uint(i&63)) != 0
		if want := i < len(d.sms) && d.hasRoom(i); set != want {
			panic(fmt.Sprintf("gpu: SM %d room bit is %v, want %v", i, set, want))
		}
	}
	if blocks != d.resident || queued != d.queued {
		panic(fmt.Sprintf("gpu: %d resident blocks and %d queued launches counted as %d and %d",
			blocks, queued, d.resident, d.queued))
	}
	if threads != d.threadsInUse {
		panic(fmt.Sprintf("gpu: %d threads in use counted as %d", threads, d.threadsInUse))
	}
	if freeBlocks != d.freeBlocks || freeThreads != d.freeThreads {
		panic(fmt.Sprintf("gpu: %d free blocks and %d free threads on online SMs counted as %d and %d",
			freeBlocks, freeThreads, d.freeBlocks, d.freeThreads))
	}
}
