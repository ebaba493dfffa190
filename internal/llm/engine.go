package llm

import (
	"errors"
	"fmt"

	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
	"paella/internal/vram"
)

// ErrKVExhausted is the terminal paging failure: a sequence's KV demand can
// never be satisfied (it exceeds the device's whole KV pool), or no live
// work remains that could ever free the pages it is waiting for. The engine
// fails such requests instead of spinning the preemption machinery.
var ErrKVExhausted = errors.New("llm: KV demand exceeds device capacity")

// errKVStall is the retriable sibling: pages are unavailable right now but
// in-flight work will release some. Internal only — stalled sequences wait
// in place and are re-kicked on every completion.
var errKVStall = errors.New("llm: KV pages unavailable")

// Hardware-queue assignment: decode iterations and prefill passes ride
// separate queues so the two phases overlap on the device — which is
// exactly the prefill/decode interference that disaggregation removes.
const (
	decodeQueue  = 0
	prefillQueue = 1
)

// Request is one generative inference call: a prompt to prefill and a
// target number of output tokens to decode (sampled by the workload layer;
// the simulator knows the length up front, the scheduler must not exploit
// beyond what Paella's profile-based estimates would know).
type Request struct {
	ID     uint64
	Client int
	// Submit is when the client issued the call (for end-to-end metrics;
	// Admit is stamped by the engine).
	Submit sim.Time
	Prompt int
	Output int
	// Tenant identifies the workload owner for multi-tenant QoS accounting
	// (copied into the request's JobRecord; the PD front's admission
	// control keys on it). Empty means untenanted.
	Tenant string
	// Session groups turns of one conversation: the PD front's affinity
	// routing keeps a session on the replica holding its KV state. Zero
	// means sessionless.
	Session uint64
}

// Handoff carries a prefilled sequence between engines in a disaggregated
// prefill/decode deployment: the request plus its metrics record so far.
// The KV pages themselves are freed on the prefill device and re-reserved
// on the decode device after the transfer the caller models.
type Handoff struct {
	Req Request
	Rec metrics.JobRecord
}

// seqState is one request's lifetime inside an engine.
type seqState struct {
	req Request
	rec metrics.JobRecord
	// tag labels the sequence's prefill launches in device traces; empty
	// when the engine's Env has no trace recorder.
	tag string

	entry sched.JobEntry
	// generated counts decode tokens produced so far. Preemption keeps it:
	// recompute prefills prompt+generated tokens, then decoding resumes.
	generated int
	// pages is the KV pages currently reserved for this sequence.
	pages int
	// needCompute marks a sequence whose KV state must be (re)built by a
	// prefill pass — fresh arrivals and preemption victims. False for
	// handed-off sequences whose KV arrives over the interconnect.
	needCompute bool
	// inPolicy marks a sequence in the Paella policy's trees: runnable, or
	// riding the in-flight continuous iteration.
	inPolicy bool
	// inReady marks a sequence in Engine.ready; readyIdx is its slot there.
	inReady  bool
	readyIdx int

	// Latency-anatomy stamps. prefillStart marks an in-flight prefill
	// pass (consumed into rec.PrefillNs at completion); stallStart marks a
	// paging preemption (consumed into rec.StallNs when the recompute
	// prefill launches, or at failure); readyAt marks the decode-loop join
	// (consumed into rec.BatchWaitNs at the sequence's first iteration —
	// the launch-time batching wait the continuous mode removes).
	prefillStart sim.Time
	stallStart   sim.Time
	readyAt      sim.Time
}

// Engine serves one generative model on one device: a FIFO prefill lane on
// its own hardware queue, and a continuously-batched decode loop ordered by
// the Paella policy. Decoding sequences stay in the policy across their
// iterations: at every iteration boundary the policy's batch order names
// the next iteration's members, and each survivor of the last one is
// requeued with its shorter remaining-work estimate.
type Engine struct {
	env    *sim.Env
	dev    *gpu.Device
	mem    *vram.Manager
	comp   *Compiled
	policy *sched.PaellaPolicy
	col    *metrics.Collector

	// prefillQ holds sequences awaiting KV pages and (when needCompute) a
	// prefill pass, FIFO. At most one prefill kernel is in flight:
	// prefilling is its sequence, nil when the prefill lane is idle.
	prefillQ   []*seqState
	prefilling *seqState
	// prefillL and decodeL are the engine's one in-flight prefill and one
	// in-flight decode launch, recycled for every pass; their completion
	// callbacks are bound once in NewEngine, so a launch allocates nothing.
	prefillL                  gpu.Launch
	decodeL                   gpu.Launch
	onPrefillDone, onIterDone func()
	// traced reports whether the Env has a trace recorder: only then are
	// prefill launches tagged with their sequence.
	traced bool
	// ready lists the policy's sequences that are not riding the in-flight
	// continuous iteration, for victim scans. Its order is irrelevant:
	// readyVictim's worseThan is a total order on (Remaining, ID), so
	// removal swaps the last entry into the freed slot.
	ready []*seqState
	// batch is the in-flight decode iteration's membership; group is the
	// static-mode resident batch (persists across iterations until drained).
	batch      []*seqState
	group      []*seqState
	groupWidth int
	decodeBusy bool
	// spareMembers, spareBatch and entries are maybeIterate's scratch,
	// reused across iterations; entries holds the policy's picks, then
	// the launched members' entries. A buffer in use is taken out of its
	// field, so a nested call (through an OnFinish callback) allocates its
	// own.
	spareMembers []*seqState
	spareBatch   []*seqState
	entries      []*sched.JobEntry

	maxKVPages  int
	inflight    int
	preemptions int
	iterations  uint64

	// mt is the optional windowed telemetry meter (internal/telemetry):
	// decode-batch width histogram, preemption counter, and per-request
	// records at retirement. KV-page and used-byte gauges ride the VRAM
	// manager's own meter attachment.
	mt        *telemetry.Meter
	mtDecodeW telemetry.MetricID
	mtPreempt telemetry.MetricID

	// HandoffPrefill, when set, makes this a prefill-only engine: a
	// completed prefill releases its local KV pages and hands the sequence
	// to the callback (the disaggregation front models the transfer and
	// calls AdmitDecoded on a decode engine).
	HandoffPrefill func(Handoff)
	// OnFinish observes every terminal record (after the collector).
	OnFinish func(metrics.JobRecord)
}

// NewEngine builds an engine on the environment: device, VRAM manager with
// the model's weights pinned resident, and a Paella policy for decode order.
func NewEngine(env *sim.Env, comp *Compiled, col *metrics.Collector) (*Engine, error) {
	cfg := comp.Cfg
	mem, err := vram.NewManager(vram.Config{CapacityBytes: cfg.VRAMBytes, BlockBytes: cfg.KVBlockBytes})
	if err != nil {
		return nil, err
	}
	name := cfg.Spec.Name + "/weights"
	if err := mem.Register(name, cfg.Spec.WeightBytes); err != nil {
		return nil, err
	}
	mem.Pin(name, env.Now())
	if cfg.Spec.WeightBytes > 0 {
		if err := mem.BeginLoad(name, env.Now()); err != nil {
			return nil, err
		}
		mem.FinishLoad(name, env.Now())
	}
	e := &Engine{
		env:        env,
		dev:        gpu.NewDevice(env, cfg.DevCfg, nil),
		mem:        mem,
		comp:       comp,
		policy:     sched.NewPaella(sched.DefaultFairnessThreshold),
		col:        col,
		maxKVPages: int(cfg.VRAMBytes/cfg.KVBlockBytes) - mem.UsedBlocks(),
		traced:     trace.FromEnv(env) != nil,
	}
	e.onPrefillDone = e.prefillDone
	e.onIterDone = e.iterDone
	if e.maxKVPages <= 0 {
		return nil, fmt.Errorf("llm %q: weights leave no KV pages", cfg.Spec.Name)
	}
	if mt := telemetry.FromEnv(env); mt != nil {
		e.mt = mt
		e.mtDecodeW = mt.Histogram("llm/decode_width")
		e.mtPreempt = mt.Counter("llm/preemptions")
		mem.AttachMeter(mt)
	}
	return e, nil
}

// Admit accepts a fresh request: it queues for KV pages and a prefill pass,
// then joins the decode loop (or the handoff callback, on a prefill-only
// engine).
func (e *Engine) Admit(req Request) {
	now := e.env.Now()
	s := &seqState{req: req, needCompute: true}
	s.rec = metrics.JobRecord{
		ID: req.ID, Model: e.comp.Cfg.Spec.Name, Client: req.Client,
		Tenant: req.Tenant, Submit: req.Submit, Admit: now,
		PromptTokens: req.Prompt,
	}
	e.admit(s, now, e.comp.PrefillMean()+sim.Time(req.Output)*e.comp.DecodeMean())
}

// AdmitDecoded accepts a sequence prefilled elsewhere (disaggregated
// serving): its KV state arrives with the handoff, so it needs pages but no
// prefill pass before joining the decode loop.
func (e *Engine) AdmitDecoded(h Handoff) {
	now := e.env.Now()
	s := &seqState{req: h.Req, rec: h.Rec}
	e.admit(s, now, sim.Time(h.Req.Output)*e.comp.DecodeMean())
}

func (e *Engine) admit(s *seqState, now sim.Time, estimate sim.Time) {
	if e.traced {
		s.tag = fmt.Sprintf("llm-%d", s.req.ID)
	}
	s.entry = sched.JobEntry{
		ID: s.req.ID, Client: s.req.Client, Arrival: now,
		Total: estimate, Remaining: estimate, Payload: s,
	}
	e.policy.JobAdmitted(s.req.Client)
	e.inflight++
	e.prefillQ = append(e.prefillQ, s)
	e.kickPrefill()
}

// kickPrefill drains the prefill queue head-first: reserve KV pages, then
// either launch the prefill kernel (needCompute) or go straight to the
// decode loop (handed-off KV). A head that cannot get pages stalls the
// queue — FIFO order is part of the determinism contract — unless no live
// work could ever free pages, which is terminal.
func (e *Engine) kickPrefill() {
	for len(e.prefillQ) > 0 {
		s := e.prefillQ[0]
		if s.needCompute && e.prefilling != nil {
			return
		}
		tokens := s.req.Prompt + s.generated
		switch err := e.reserveFor(s, tokens, nil, -1); {
		case err == nil:
		case errors.Is(err, ErrKVExhausted):
			e.prefillQ = e.prefillQ[1:]
			e.fail(s)
			continue
		default:
			if e.noProgressPossible() {
				e.prefillQ = e.prefillQ[1:]
				e.fail(s)
				continue
			}
			return
		}
		e.prefillQ = e.prefillQ[1:]
		if !s.needCompute {
			e.decodeReady(s)
			continue
		}
		now := e.env.Now()
		if s.stallStart > 0 {
			// Preemption stall ends where the recompute pass launches.
			s.rec.StallNs += now - s.stallStart
			s.stallStart = 0
		}
		s.prefillStart = now
		if s.rec.FirstDispatch == 0 {
			s.rec.FirstDispatch = now
		}
		e.policy.Dispatched(&s.entry)
		e.prefilling = s
		e.submit(prefillQueue, &e.prefillL, e.comp.PrefillSpec(tokens), s.tag, e.onPrefillDone)
	}
}

// noProgressPossible reports whether nothing in flight or runnable could
// ever release KV pages — the stalled queue head would wait forever.
func (e *Engine) noProgressPossible() bool {
	return !e.decodeBusy && e.prefilling == nil && len(e.ready) == 0 && len(e.group) == 0
}

// submit recycles one of the engine's launches and hands it to the
// device. The launch is free again: its last pass completed before the
// callback that starts the next one ran.
func (e *Engine) submit(q int, l *gpu.Launch, spec *gpu.KernelSpec, tag string, done func()) {
	l.Recycle()
	l.Spec, l.JobTag, l.OnComplete = spec, tag, done
	e.dev.Submit(q, l)
}

func (e *Engine) prefillDone() {
	s := e.prefilling
	e.prefilling = nil
	now := e.env.Now()
	if s.prefillStart > 0 {
		s.rec.PrefillNs += now - s.prefillStart
		s.prefillStart = 0
	}
	if e.HandoffPrefill != nil {
		if s.pages > 0 {
			e.mem.ReleaseKV(s.pages, now)
			s.pages = 0
		}
		e.policy.JobFinished(s.req.Client)
		e.inflight--
		h := Handoff{Req: s.req, Rec: s.rec}
		e.kickPrefill()
		e.HandoffPrefill(h)
		return
	}
	e.decodeReady(s)
	e.kickPrefill()
}

func (e *Engine) decodeReady(s *seqState) {
	s.needCompute = false
	s.readyAt = e.env.Now()
	s.entry.Remaining = sim.Time(s.req.Output-s.generated) * e.comp.DecodeMean()
	e.addToPolicy(s)
	e.maybeIterate()
}

// maybeIterate forms and launches the next decode iteration. Continuous
// mode takes the batch from the policy's order every iteration (joins and
// retirements at iteration boundaries); its members stay in the policy
// and only leave the victim-scan list. Static mode forms a batch only
// when the previous one has fully drained, takes its members out of the
// policy, and pads its launches at the formation width until then.
func (e *Engine) maybeIterate() {
	if e.decodeBusy {
		return
	}
	members := e.spareMembers[:0]
	e.spareMembers = nil
	defer func() {
		clear(members)
		e.spareMembers = members[:0]
	}()
	width := 0
	if e.comp.Cfg.Continuous {
		e.entries = e.policy.AppendBatch(e.entries[:0], e.comp.Cfg.MaxBatch)
		for _, j := range e.entries {
			s := j.Payload.(*seqState)
			e.dropReady(s)
			members = append(members, s)
		}
	} else {
		if len(e.group) == 0 {
			e.entries = e.policy.AppendBatch(e.entries[:0], e.comp.Cfg.MaxBatch)
			for _, j := range e.entries {
				s := j.Payload.(*seqState)
				e.removeFromPolicy(s)
				e.group = append(e.group, s)
			}
			e.groupWidth = len(e.group)
		}
		members = append(members, e.group...)
		width = e.groupWidth
	}
	clear(e.entries)
	if len(members) == 0 {
		return
	}

	// Grow every member's KV by one token before launching. A member that
	// cannot grow even after preemption waits out this iteration; one whose
	// demand can never fit fails.
	alive := e.spareBatch[:0]
	e.spareBatch = nil
	for i := 0; i < len(members); i++ {
		s := members[i]
		if s == nil {
			continue
		}
		switch err := e.reserveFor(s, s.req.Prompt+s.generated+1, members, i); {
		case err == nil:
			alive = append(alive, s)
		case errors.Is(err, ErrKVExhausted):
			e.dropFromGroup(s)
			e.fail(s)
		default:
			// Stall: skip this iteration. Static members stay in the group;
			// continuous ones go to the back of their ties in the policy,
			// where a Remove and Add would put them, to be re-picked.
			if e.comp.Cfg.Continuous {
				e.policy.Requeue(&s.entry)
				e.addReady(s)
			}
		}
	}
	if len(alive) == 0 {
		e.spareBatch = alive
		return
	}
	if width == 0 {
		width = len(alive)
	}
	now := e.env.Now()
	entries := e.entries[:0]
	for _, s := range alive {
		entries = append(entries, &s.entry)
		if s.rec.FirstDispatch == 0 {
			s.rec.FirstDispatch = now
		}
		if s.rec.FirstToken == 0 && s.readyAt > 0 {
			// Decode-loop join wait before the first token: under static
			// batching a latecomer sits here while the formed group drains
			// — the phase the TTFT win comes from.
			s.rec.BatchWaitNs += now - s.readyAt
		}
		s.readyAt = 0
		if width > s.rec.BatchSize {
			s.rec.BatchSize = width
		}
	}
	e.mt.Observe(e.mtDecodeW, now, float64(width))
	sched.BatchDispatched(e.policy, entries)
	clear(entries)
	e.entries = entries[:0]
	e.batch = alive
	e.decodeBusy = true
	e.iterations++
	e.submit(decodeQueue, &e.decodeL, e.comp.DecodeSpec(width), DecodeKernel, e.onIterDone)
}

func (e *Engine) iterDone() {
	now := e.env.Now()
	e.decodeBusy = false
	batch := e.batch
	e.batch = nil
	// Settle every member's place in the policy before any retirement runs
	// OnFinish, so no callback sees a member that is neither requeued nor
	// gone. Continuous members are still in the policy; static ones are not.
	for _, s := range batch {
		s.generated++
		if s.rec.FirstToken == 0 {
			s.rec.FirstToken = now
		}
		switch {
		case s.generated >= s.req.Output:
			if s.inPolicy {
				e.removeFromPolicy(s)
			}
		case e.comp.Cfg.Continuous:
			s.entry.Remaining = sim.Time(s.req.Output-s.generated) * e.comp.DecodeMean()
			e.policy.Requeue(&s.entry)
			e.addReady(s)
		}
	}
	for _, s := range batch {
		if s.generated >= s.req.Output {
			e.retire(s, now)
		}
	}
	clear(batch)
	e.spareBatch = batch[:0]
	e.kickPrefill()
	e.maybeIterate()
}

func (e *Engine) retire(s *seqState, now sim.Time) {
	s.rec.ExecDone, s.rec.Delivered = now, now
	s.rec.OutputTokens = s.generated
	if s.pages > 0 {
		e.mem.ReleaseKV(s.pages, now)
		s.pages = 0
	}
	e.dropFromGroup(s)
	e.policy.JobFinished(s.req.Client)
	e.inflight--
	e.col.Add(s.rec)
	e.mt.RecordJob(s.rec.Delivered, &s.rec)
	if e.OnFinish != nil {
		e.OnFinish(s.rec)
	}
}

func (e *Engine) fail(s *seqState) {
	now := e.env.Now()
	if s.stallStart > 0 {
		s.rec.StallNs += now - s.stallStart
		s.stallStart = 0
	}
	s.rec.Failed = true
	if s.rec.FailureReason == "" {
		s.rec.FailureReason = ErrKVExhausted.Error()
	}
	// Stamp ExecDone at the failure too: without it TPOT went negative for
	// failed sequences past their first token, and CommNs swallowed the
	// whole queue wait as "communication".
	s.rec.ExecDone = now
	s.rec.Delivered = now
	s.rec.OutputTokens = s.generated
	if s.pages > 0 {
		e.mem.ReleaseKV(s.pages, now)
		s.pages = 0
	}
	if s.inPolicy {
		e.removeFromPolicy(s)
	}
	e.dropFromGroup(s)
	e.policy.JobFinished(s.req.Client)
	e.inflight--
	e.col.Add(s.rec)
	e.mt.RecordJob(s.rec.Delivered, &s.rec)
	if e.OnFinish != nil {
		e.OnFinish(s.rec)
	}
}

// reserveFor grows s's KV reservation to cover the given token count. When
// s is members[i], the decode member being grown, it preempts victims
// (decodeVictim) until the reservation fits; i < 0 forbids preemption.
// Partial progress is kept: a stalled sequence retains the pages it
// already holds and retries with the smaller deficit later.
func (e *Engine) reserveFor(s *seqState, tokens int, members []*seqState, i int) error {
	target := e.comp.PagesFor(tokens)
	if target > e.maxKVPages {
		return ErrKVExhausted
	}
	need := target - s.pages
	if need <= 0 {
		return nil
	}
	for {
		if err := e.mem.ReserveKV(need, e.env.Now()); err == nil {
			s.pages = target
			return nil
		}
		if i < 0 {
			return errKVStall
		}
		v := e.decodeVictim(members, i)
		if v == nil {
			return errKVStall
		}
		e.preempt(v)
	}
}

// decodeVictim picks the sequence to preempt so that decode member
// members[i] can grow: the waiting readyVictim if any, else the
// worst not-yet-grown member from the batch tail. The SRPT-front member
// must make progress or the loop deadlocks with every sequence holding
// pages and none able to grow. A tail victim leaves the batch.
func (e *Engine) decodeVictim(members []*seqState, i int) *seqState {
	if v := e.readyVictim(); v != nil {
		return v
	}
	best, bi := (*seqState)(nil), -1
	for j := i + 1; j < len(members); j++ {
		m := members[j]
		if m == nil || m.pages == 0 {
			continue
		}
		if best == nil || worseThan(m, best) {
			best, bi = m, j
		}
	}
	if best != nil {
		members[bi] = nil
		e.dropFromGroup(best)
	}
	return best
}

// preempt evicts a sequence's KV pages and schedules it for recompute: the
// generated tokens are kept, so the re-prefill covers prompt+generated and
// decoding resumes where it stopped (vLLM's recompute-style preemption).
func (e *Engine) preempt(v *seqState) {
	if v.inPolicy {
		e.removeFromPolicy(v)
	}
	if v.pages > 0 {
		e.mem.ReleaseKV(v.pages, e.env.Now())
		v.pages = 0
	}
	v.needCompute = true
	v.rec.Preemptions++
	v.stallStart = e.env.Now()
	e.preemptions++
	e.mt.Add(e.mtPreempt, e.env.Now(), 1)
	e.prefillQ = append(e.prefillQ, v)
}

// readyVictim picks the preemption victim among the sequences in ready,
// which holds no member of the batch being formed or in flight: the one
// SRPT would serve last (max remaining, then max ID) — evicting the
// longest-remaining waiter costs the least expected progress.
func (e *Engine) readyVictim() *seqState {
	var best *seqState
	for _, s := range e.ready {
		if s.pages == 0 {
			continue
		}
		if best == nil || worseThan(s, best) {
			best = s
		}
	}
	return best
}

// worseThan orders preemption candidates: a is a better victim than b when
// it has more remaining work (ID-descending tiebreak for determinism).
func worseThan(a, b *seqState) bool {
	if a.entry.Remaining != b.entry.Remaining {
		return a.entry.Remaining > b.entry.Remaining
	}
	return a.req.ID > b.req.ID
}

func (e *Engine) addToPolicy(s *seqState) {
	e.policy.Add(&s.entry)
	s.inPolicy = true
	e.addReady(s)
}

func (e *Engine) removeFromPolicy(s *seqState) {
	e.policy.Remove(&s.entry)
	s.inPolicy = false
	if s.inReady {
		e.dropReady(s)
	}
}

func (e *Engine) addReady(s *seqState) {
	s.inReady = true
	s.readyIdx = len(e.ready)
	e.ready = append(e.ready, s)
}

func (e *Engine) dropReady(s *seqState) {
	s.inReady = false
	last := len(e.ready) - 1
	moved := e.ready[last]
	e.ready[s.readyIdx] = moved
	moved.readyIdx = s.readyIdx
	e.ready[last] = nil
	e.ready = e.ready[:last]
}

func (e *Engine) dropFromGroup(s *seqState) {
	for i, g := range e.group {
		if g == s {
			e.group = append(e.group[:i], e.group[i+1:]...)
			if len(e.group) == 0 {
				e.groupWidth = 0
			}
			return
		}
	}
}

// Preemptions returns how many KV preemption-by-recompute events occurred.
func (e *Engine) Preemptions() int { return e.preemptions }

// Iterations returns how many decode iterations were launched.
func (e *Engine) Iterations() uint64 { return e.iterations }

// Mem exposes the engine's VRAM manager (KV-page stats, invariants).
func (e *Engine) Mem() *vram.Manager { return e.mem }

// Device exposes the engine's simulated GPU.
func (e *Engine) Device() *gpu.Device { return e.dev }
