// Package autoscale scales a cluster's replica pool on the virtual clock —
// an extension in the spirit of the paper's §8, which positions Paella's
// software-defined scheduling to compose hierarchically with cluster-level
// scheduling. The §5 dispatcher answers "which kernel next" on one GPU;
// this package asks the fleet-level question — how many replicas, as
// millions of simulated users ebb and flow. A Scaler ticks on the control
// timeline, reads live fleet signals (queue pressure, traffic rates, SLO
// burn), asks a pluggable Policy for a target pool size, and owns the
// mechanics the policy abstracts away: scale-up pays a realistic cold
// start (weight paging through internal/vram over the PCIe link), and
// scale-down drains a replica's in-flight work before retiring it, so
// every request still ends in exactly one completion or one typed error.
// Replica-hour billing and the heterogeneous fleet-mix optimizer
// (OptimizeMix) turn the same machinery into an SLO-vs-cost frontier.
package autoscale

import (
	"fmt"

	"paella/internal/cluster"
	"paella/internal/metrics"
	"paella/internal/sim"
	"paella/internal/telemetry"
)

// ReplicaState is one replica's position in the autoscaler's lifecycle.
type ReplicaState uint8

const (
	// ReplicaParked is off the bill: not routable, weights evicted.
	ReplicaParked ReplicaState = iota
	// ReplicaWarming is paying its cold start: billed, not yet routable.
	ReplicaWarming
	// ReplicaActive serves traffic: billed and routable.
	ReplicaActive
	// ReplicaDraining is retiring: billed, not routable, finishing its
	// in-flight work before parking.
	ReplicaDraining
)

// String names the state for reports.
func (s ReplicaState) String() string {
	switch s {
	case ReplicaWarming:
		return "warming"
	case ReplicaActive:
		return "active"
	case ReplicaDraining:
		return "draining"
	default:
		return "parked"
	}
}

// EventKind classifies one scaling event.
type EventKind uint8

const (
	// EventScaleUp begins a parked replica's warmup.
	EventScaleUp EventKind = iota
	// EventWarmDone completes a warmup: the replica joins the routable pool.
	EventWarmDone
	// EventReactivate cancels an in-progress drain — the cheapest capacity
	// is a still-warm replica on its way out.
	EventReactivate
	// EventDrainBegin removes a replica from routing to let it drain.
	EventDrainBegin
	// EventParked retires a drained replica: weights evicted, billing off.
	EventParked
)

// String names the event kind for reports.
func (k EventKind) String() string {
	switch k {
	case EventScaleUp:
		return "scale-up"
	case EventWarmDone:
		return "warm-done"
	case EventReactivate:
		return "reactivate"
	case EventDrainBegin:
		return "drain-begin"
	default:
		return "parked"
	}
}

// Event is one deterministic entry in the scaling log.
type Event struct {
	// At is the virtual time of the transition.
	At sim.Time
	// Replica is the stable physical replica index.
	Replica int
	// Kind classifies the transition.
	Kind EventKind
	// Active is the routable-pool size after the transition.
	Active int
}

// Stats aggregates the run's scaling activity.
type Stats struct {
	// ScaleUps counts parked→warming transitions; Reactivations counts
	// draining→active rescues; ScaleDowns counts active→draining.
	ScaleUps, Reactivations, ScaleDowns int
	// Parks counts completed drains (replica fully retired).
	Parks int
	// ColdStarts counts completed warmups, ColdStartNs their total wall
	// time on the virtual clock, and ColdStartBytes the weights paged —
	// the run's cold-start spend.
	ColdStarts     int
	ColdStartNs    sim.Time
	ColdStartBytes int64
}

// Config parameterizes a Scaler.
type Config struct {
	// Min and Max bound the provisioned pool (replicas outside Max never
	// activate). Min must be at least 1 so traffic always has somewhere to
	// go; Max defaults to the cluster size.
	Min, Max int
	// Initial is the pool size at time zero (0 = Min). Initial replicas
	// start active and billed, without a cold start — the fleet predates
	// the trace.
	Initial int
	// Interval is the control-loop tick (0 = 50ms of virtual time).
	Interval sim.Time
	// Policy decides the target pool size each tick. Required.
	Policy Policy
	// SLO optionally configures a telemetry burn-rate monitor over the
	// fleet's delivered latencies; its Deadline also defines the
	// attainment statistic. A zero Deadline disables both (SLOFiring stays
	// false).
	SLO telemetry.SLOConfig
	// DollarsPerHour prices each replica for Cost (len == cluster size);
	// nil bills everything at zero.
	DollarsPerHour []float64
}

// retryBackoff is the Front's resubmit delay when no replica can take a
// request.
const retryBackoff = 20 * sim.Microsecond

// Scaler is the control loop. Construct with New, attach traffic through
// Front, then Start before running the simulation. All state lives on the
// control timeline: ticks, warmup completions, and terminal observations
// serialize there, so results do not depend on the order World shards
// execute in.
type Scaler struct {
	env *sim.Env
	c   *cluster.Cluster
	cfg Config

	state  []ReplicaState
	target int

	// Billing: onSince stamps when a replica last left Parked; billedNs
	// accumulates closed non-parked intervals.
	onSince  []sim.Time
	billedNs []sim.Time
	// coldSince stamps an in-progress warmup's start.
	coldSince []sim.Time

	// activeNs integrates routable-pool size over time for MeanActive.
	activeNs   float64
	lastActive sim.Time

	events  []Event
	stats   Stats
	running bool

	// Per-tick traffic counters, fed by Front.
	submittedTick, completedTick int
	// muRaw/muEst learn the per-replica sustainable rate (req/s).
	muRaw, muEst float64

	// SLO machinery: a private meter hosting the burn monitor, the alert
	// cursor, and the attainment counters.
	slomt    *telemetry.Meter
	alertIdx int
	firing   bool
	sloGood  int
	sloTotal int

	// Environment telemetry instruments (nil-safe when no meter attached).
	mt      *telemetry.Meter
	gActive telemetry.MetricID
	gTarget telemetry.MetricID
	cUps    telemetry.MetricID
	cDowns  telemetry.MetricID
	cCold   telemetry.MetricID
	hColdNs telemetry.MetricID
}

// NewScaler validates the config and builds the scaler: replicas
// [0, Initial) start active, the rest park immediately (unroutable,
// weights cold). (New is the policy-registry constructor, mirroring
// gateway.New.)
func NewScaler(env *sim.Env, c *cluster.Cluster, cfg Config) (*Scaler, error) {
	if cfg.Max == 0 {
		cfg.Max = c.Size()
	}
	switch {
	case cfg.Policy == nil:
		return nil, fmt.Errorf("autoscale: nil policy")
	case cfg.Min < 1:
		return nil, fmt.Errorf("autoscale: min %d must be at least 1", cfg.Min)
	case cfg.Max > c.Size():
		return nil, fmt.Errorf("autoscale: max %d exceeds cluster size %d", cfg.Max, c.Size())
	case cfg.Min > cfg.Max:
		return nil, fmt.Errorf("autoscale: min %d exceeds max %d", cfg.Min, cfg.Max)
	case cfg.DollarsPerHour != nil && len(cfg.DollarsPerHour) != c.Size():
		return nil, fmt.Errorf("autoscale: %d prices for %d replicas", len(cfg.DollarsPerHour), c.Size())
	}
	if cfg.Initial == 0 {
		cfg.Initial = cfg.Min
	}
	if cfg.Initial < cfg.Min || cfg.Initial > cfg.Max {
		return nil, fmt.Errorf("autoscale: initial %d outside [%d, %d]", cfg.Initial, cfg.Min, cfg.Max)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * sim.Millisecond
	}
	s := &Scaler{
		env: env, c: c, cfg: cfg,
		state:      make([]ReplicaState, c.Size()),
		onSince:    make([]sim.Time, c.Size()),
		billedNs:   make([]sim.Time, c.Size()),
		coldSince:  make([]sim.Time, c.Size()),
		target:     cfg.Initial,
		lastActive: env.Now(),
	}
	now := env.Now()
	for i := 0; i < c.Size(); i++ {
		if i < cfg.Initial {
			s.state[i] = ReplicaActive
			s.onSince[i] = now
		} else {
			s.state[i] = ReplicaParked
			c.SetRoutable(i, false)
		}
	}
	if cfg.SLO.Deadline > 0 {
		s.slomt = telemetry.NewMeter("autoscale-slo", 0)
		s.slomt.SLO(cfg.SLO)
	}
	s.mt = telemetry.FromEnv(env)
	if s.mt != nil {
		s.gActive = s.mt.Gauge("autoscale/active_replicas")
		s.gTarget = s.mt.Gauge("autoscale/target")
		s.cUps = s.mt.Counter("autoscale/scale_ups")
		s.cDowns = s.mt.Counter("autoscale/scale_downs")
		s.cCold = s.mt.Counter("autoscale/cold_starts")
		s.hColdNs = s.mt.Histogram("autoscale/cold_start_ns")
		s.mt.Set(s.gActive, now, float64(cfg.Initial))
		s.mt.Set(s.gTarget, now, float64(cfg.Initial))
	}
	return s, nil
}

// Start arms the control loop: the first tick fires one interval from now.
func (s *Scaler) Start() {
	if s.running {
		return
	}
	s.running = true
	s.scheduleTick()
}

func (s *Scaler) scheduleTick() {
	s.env.After(s.cfg.Interval, func() {
		s.tick()
		s.scheduleTick()
	})
}

// tick is one control-loop iteration: finish drains, read signals, ask the
// policy, and move the pool toward the clamped target.
func (s *Scaler) tick() {
	now := s.env.Now()

	// Retire replicas whose drain completed.
	for i, st := range s.state {
		if st == ReplicaDraining && s.c.InFlight(i) == 0 {
			s.park(i, now)
		}
	}

	sig := s.signals(now)
	target := s.cfg.Policy.Target(sig)
	if target < s.cfg.Min {
		target = s.cfg.Min
	}
	if target > s.cfg.Max {
		target = s.cfg.Max
	}
	s.target = target
	s.mt.Set(s.gTarget, now, float64(target))

	prov := sig.Active + sig.Warming
	switch {
	case target > prov:
		s.grow(target-prov, now)
	case target < prov:
		s.shrink(prov-target, now)
	}
	s.mt.Set(s.gActive, now, float64(s.CountState(ReplicaActive)))

	s.submittedTick = 0
	s.completedTick = 0
}

// signals assembles the policy's view of the fleet at this tick.
func (s *Scaler) signals(now sim.Time) Signals {
	sig := Signals{Target: s.target}
	for i, st := range s.state {
		if !s.c.Alive(i) {
			continue
		}
		switch st {
		case ReplicaActive:
			sig.Active++
		case ReplicaWarming:
			sig.Warming++
		case ReplicaDraining:
			sig.Draining++
		default:
			sig.Parked++
		}
		sig.InFlight += s.c.InFlight(i)
	}
	sec := s.cfg.Interval.Seconds()
	sig.ArrivalRate = float64(s.submittedTick) / sec
	sig.CompletionRate = float64(s.completedTick) / sec
	if sig.Active > 0 && s.completedTick > 0 {
		r := sig.CompletionRate / float64(sig.Active)
		if s.muRaw == 0 {
			s.muRaw = r
		} else {
			s.muRaw = 0.5*s.muRaw + 0.5*r
		}
		if s.muRaw > s.muEst {
			s.muEst = s.muRaw
		}
	}
	sig.ReplicaRate = s.muEst
	if s.slomt != nil {
		alerts := s.slomt.Alerts()
		for ; s.alertIdx < len(alerts); s.alertIdx++ {
			s.firing = alerts[s.alertIdx].Firing
		}
		sig.SLOFiring = s.firing
	}
	return sig
}

// grow adds capacity: first rescue draining replicas (still warm — a free
// reactivation), then warm parked ones, both lowest index first for
// determinism.
func (s *Scaler) grow(n int, now sim.Time) {
	for i := 0; i < len(s.state) && n > 0; i++ {
		if s.state[i] == ReplicaDraining && s.c.Alive(i) {
			s.markActive(i)
			s.c.SetRoutable(i, true)
			s.stats.Reactivations++
			s.events = append(s.events, Event{At: now, Replica: i, Kind: EventReactivate, Active: s.CountState(ReplicaActive)})
			n--
		}
	}
	for i := 0; i < len(s.state) && n > 0; i++ {
		if s.state[i] != ReplicaParked || !s.c.Alive(i) {
			continue
		}
		s.state[i] = ReplicaWarming
		s.onSince[i] = now
		s.coldSince[i] = now
		s.stats.ScaleUps++
		s.mt.Add(s.cUps, now, 1)
		s.events = append(s.events, Event{At: now, Replica: i, Kind: EventScaleUp, Active: s.CountState(ReplicaActive)})
		i := i
		s.stats.ColdStartBytes += s.c.Warmup(i, func() { s.warmDone(i) })
		n--
	}
}

// warmDone completes replica i's cold start on the control timeline.
func (s *Scaler) warmDone(i int) {
	if s.state[i] != ReplicaWarming || !s.c.Alive(i) {
		return
	}
	now := s.env.Now()
	s.markActive(i)
	s.c.SetRoutable(i, true)
	d := now - s.coldSince[i]
	s.stats.ColdStarts++
	s.stats.ColdStartNs += d
	s.mt.Add(s.cCold, now, 1)
	s.mt.Observe(s.hColdNs, now, float64(d))
	s.events = append(s.events, Event{At: now, Replica: i, Kind: EventWarmDone, Active: s.CountState(ReplicaActive)})
	s.mt.Set(s.gActive, now, float64(s.CountState(ReplicaActive)))
}

// shrink drains n active replicas, highest index first (warming replicas
// finish their cold start; draining an in-progress transfer is not worth
// the complexity for a control loop that can reactivate next tick).
func (s *Scaler) shrink(n int, now sim.Time) {
	for i := len(s.state) - 1; i >= 0 && n > 0; i-- {
		if s.state[i] != ReplicaActive || !s.c.Alive(i) {
			continue
		}
		s.markDraining(i)
		s.c.SetRoutable(i, false)
		s.stats.ScaleDowns++
		s.mt.Add(s.cDowns, now, 1)
		s.events = append(s.events, Event{At: now, Replica: i, Kind: EventDrainBegin, Active: s.CountState(ReplicaActive)})
		n--
	}
}

// park retires a fully drained replica: weights evicted, billing closed.
func (s *Scaler) park(i int, now sim.Time) {
	s.state[i] = ReplicaParked
	s.c.EvictAll(i)
	s.billedNs[i] += now - s.onSince[i]
	s.stats.Parks++
	s.events = append(s.events, Event{At: now, Replica: i, Kind: EventParked, Active: s.CountState(ReplicaActive)})
}

// markActive moves a replica into the active pool, updating the
// active-count time integral.
func (s *Scaler) markActive(i int) {
	s.integrateActive()
	s.state[i] = ReplicaActive
}

// markDraining moves a replica out of the active pool.
func (s *Scaler) markDraining(i int) {
	s.integrateActive()
	s.state[i] = ReplicaDraining
}

// integrateActive folds the elapsed interval into the active-count
// integral before a pool change.
func (s *Scaler) integrateActive() {
	now := s.env.Now()
	s.activeNs += float64(now-s.lastActive) * float64(s.CountState(ReplicaActive))
	s.lastActive = now
}

// ObserveSubmit feeds one newly submitted request into the tick's arrival
// counter (Front calls this; drivers bypassing Front may too).
func (s *Scaler) ObserveSubmit() { s.submittedTick++ }

// Outcome classifies a request's terminal event for ObserveTerminal.
type Outcome uint8

const (
	// OutcomeCompleted is a successful delivery.
	OutcomeCompleted Outcome = iota
	// OutcomeShed is an admission-refused request (gateway.ErrTenantShed).
	OutcomeShed
	// OutcomeFailed is any other typed failure.
	OutcomeFailed
)

// ObserveTerminal feeds one terminal event: the completion-rate counter,
// the SLO burn monitor, and the attainment statistic (a request attains
// the SLO when it completed within the deadline; shed and failed requests
// burn budget).
func (s *Scaler) ObserveTerminal(latency sim.Time, outcome Outcome) {
	now := s.env.Now()
	if outcome == OutcomeCompleted {
		s.completedTick++
	}
	if s.cfg.SLO.Deadline <= 0 {
		return
	}
	good := outcome == OutcomeCompleted && latency <= s.cfg.SLO.Deadline
	s.sloTotal++
	if good {
		s.sloGood++
	}
	if s.slomt != nil {
		s.slomt.RecordJob(now, &metrics.JobRecord{
			Submit: now - latency, Admit: now - latency,
			ExecDone: now, Delivered: now,
			Failed: outcome != OutcomeCompleted,
		})
	}
}

// State returns replica i's lifecycle state.
func (s *Scaler) State(i int) ReplicaState { return s.state[i] }

// Target returns the last clamped policy target.
func (s *Scaler) Target() int { return s.target }

// CountState returns how many replicas are in the given state.
func (s *Scaler) CountState(st ReplicaState) int {
	n := 0
	for _, v := range s.state {
		if v == st {
			n++
		}
	}
	return n
}

// Events returns the scaling log in emission order.
func (s *Scaler) Events() []Event { return s.events }

// ScaleStats returns the run's aggregate scaling activity.
func (s *Scaler) ScaleStats() Stats { return s.stats }

// QuiesceTime returns the billing horizon for a run whose trace ended at
// end: end itself, or the last scaling transition if the fleet was still
// draining and parking replicas past it. The billing accessors
// (ReplicaSeconds, Cost, MeanActive) integrate "up to now" and assume now
// is at least as late as every internal transition — pass them a
// QuiesceTime, not a raw trace end, when the run was driven beyond it.
func (s *Scaler) QuiesceTime(end sim.Time) sim.Time {
	for _, e := range s.events {
		if e.At > end {
			end = e.At
		}
	}
	return end
}

// ReplicaSeconds returns the fleet's billed (non-parked) replica time up
// to now, in seconds.
func (s *Scaler) ReplicaSeconds(now sim.Time) float64 {
	var total sim.Time
	for i, ns := range s.billedNs {
		total += ns
		if s.state[i] != ReplicaParked {
			total += now - s.onSince[i]
		}
	}
	return total.Seconds()
}

// Cost returns the fleet's dollar spend up to now under the configured
// per-replica $/hr prices (zero without prices).
func (s *Scaler) Cost(now sim.Time) float64 {
	if s.cfg.DollarsPerHour == nil {
		return 0
	}
	var dollars float64
	for i, ns := range s.billedNs {
		t := ns
		if s.state[i] != ReplicaParked {
			t += now - s.onSince[i]
		}
		dollars += t.Seconds() / 3600 * s.cfg.DollarsPerHour[i]
	}
	return dollars
}

// MeanActive returns the time-averaged routable-pool size up to now.
func (s *Scaler) MeanActive(now sim.Time) float64 {
	total := s.activeNs + float64(now-s.lastActive)*float64(s.CountState(ReplicaActive))
	if now <= 0 {
		return float64(s.CountState(ReplicaActive))
	}
	return total / float64(now)
}

// Attainment returns the fraction of terminated requests that met the SLO
// deadline (1 when no SLO is configured or nothing terminated yet).
func (s *Scaler) Attainment() float64 {
	if s.sloTotal == 0 {
		return 1
	}
	return float64(s.sloGood) / float64(s.sloTotal)
}
