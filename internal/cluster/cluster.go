// Package cluster fronts multiple independent Paella instances — one
// dispatcher per GPU — with a cluster-level routing layer. The paper's §8
// notes that cluster-level scheduling composes with Paella through the
// standard hierarchical-scheduling literature; this package provides that
// hook: a request is admitted and routed to a GPU by an internal/gateway
// policy (predicted-latency, affinity, or the classic load heuristics),
// then scheduled on that GPU by the full Paella machinery. Per-tenant
// token-bucket admission control (gateway.Admission) sheds excess traffic
// at the front door with a typed error before it can queue behind anyone
// else's requests.
package cluster

import (
	"errors"
	"fmt"

	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/cudart"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/trace"
	"paella/internal/vram"
)

// ErrReplicaCrashed is the typed failure delivered through Conn.OnFailed
// when a request's replica crashed and no live replica remained to fail
// over to (or the failover submit could not be placed), and when a request
// is submitted after every replica crashed.
var ErrReplicaCrashed = errors.New("cluster: replica crashed, failover impossible")

// Failed is the sentinel Conn.Submit returns for a request that failed at
// submission: OnFailed has already delivered gateway.ErrTenantShed (the
// admission controller refused it) or ErrReplicaCrashed (no replica is
// alive). The request is terminal and must not be retried, unlike the -1
// result.
const Failed = -2

// Cluster is a set of Paella instances behind one gateway policy.
type Cluster struct {
	// front holds admission, shed records, and the gateway instruments;
	// its env is the control timeline.
	front
	// world is non-nil when the cluster runs on the conservative-window
	// engine: each dispatcher lives on its own shard Env (shard index ==
	// replica index), env is the world's control Env, and all cross-replica
	// work — routing, failover, terminal delivery — executes as control
	// events with the shards parked at a barrier.
	world  *sim.World
	disps  []*core.Dispatcher
	policy gateway.Policy
	// capacity is each replica's thread-slot count, its routing weight.
	capacity []int
	// inflight counts requests routed to each GPU and not yet completed —
	// maintained at the gateway, where the routing decision is made
	// (backend admission counters lag by the channel latency).
	inflight []int
	// pendingNs tracks each replica's routed-but-unfinished predicted work
	// in nanoseconds of its own profiled service time — the queue signal
	// behind predicted-latency routing. Charged at route time, refunded at
	// the terminal event (or failover), using the same per-model cost so
	// the account always drains to zero.
	pendingNs []sim.Time
	// costNs maps model → per-replica profiled service estimate
	// (Profile.TotalTime of the per-device compilation); weightBytes maps
	// model → weight footprint for the cold-start penalty estimate.
	costNs      map[string][]sim.Time
	weightBytes map[string]int64
	// alive marks replicas that have not crashed; the policy only ever
	// sees live replicas. conns tracks every cluster-level connection for
	// crash failover.
	alive   []bool
	crashes int
	conns   []*Conn

	// routable marks replicas the gateway may route new work to. Unlike
	// alive (a crash — involuntary, with failover), clearing routable is the
	// autoscaler's voluntary drain: in-flight requests finish where they
	// are, only new arrivals skip the replica. All replicas start routable.
	routable []bool
	// modelOrder lists registered models in registration order, the
	// deterministic iteration order for Warmup/EvictAll (map iteration
	// would vary run to run).
	modelOrder []string

	// rec is the structured tracing recorder (nil = disabled); routing
	// decisions are instants on routeTrack.
	rec        *trace.Recorder
	routeTrack trace.TrackID
}

// New builds a cluster with one dispatcher per device configuration
// (possibly heterogeneous). Each dispatcher gets a fresh policy from
// mkPolicy.
func New(env *sim.Env, devs []gpu.Config, mkPolicy func() sched.Policy, p gateway.Policy) (*Cluster, error) {
	return NewWithConfig(env, devs, func(int, gpu.Config) core.Config {
		return core.DefaultConfig(mkPolicy())
	}, p)
}

// NewWithConfig builds a cluster with a caller-supplied dispatcher
// configuration per device — the hook for per-GPU VRAM budgets, ablation
// modes, or tuned dispatcher costs. mkCfg is called once per device with
// its index and configuration.
func NewWithConfig(env *sim.Env, devs []gpu.Config, mkCfg func(i int, dev gpu.Config) core.Config, p gateway.Policy) (*Cluster, error) {
	return build(env, nil, devs, mkCfg, p, nil)
}

// NewWorldWithConfig builds a cluster on a sim.World: each replica
// (dispatcher, GPU, cudart/PCIe link, VRAM state) is placed on its own
// shard Env, so replica windows can execute concurrently while routing,
// failover, and terminal delivery serialize on the control Env. Request
// generators and fault injectors must schedule on w.Ctrl(). The world must
// have no shards yet. The optional setup hook runs with each replica's
// shard Env before the dispatcher is built on it (e.g. to attach a
// per-replica trace recorder).
func NewWorldWithConfig(w *sim.World, devs []gpu.Config, mkCfg func(i int, dev gpu.Config) core.Config, p gateway.Policy, setup func(i int, shard *sim.Env)) (*Cluster, error) {
	if w.NumShards() != 0 {
		return nil, fmt.Errorf("cluster: world already has %d shards", w.NumShards())
	}
	return build(w.Ctrl(), w, devs, mkCfg, p, setup)
}

func build(env *sim.Env, w *sim.World, devs []gpu.Config, mkCfg func(i int, dev gpu.Config) core.Config, p gateway.Policy, setup func(i int, shard *sim.Env)) (*Cluster, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("cluster: no devices")
	}
	c := &Cluster{
		world: w, policy: p,
		inflight:    make([]int, len(devs)),
		pendingNs:   make([]sim.Time, len(devs)),
		alive:       make([]bool, len(devs)),
		costNs:      make(map[string][]sim.Time),
		weightBytes: make(map[string]int64),
	}
	c.routable = make([]bool, len(devs))
	for i := range c.alive {
		c.alive[i] = true
		c.routable[i] = true
	}
	if rec := trace.FromEnv(env); rec != nil {
		c.rec = rec
		c.routeTrack = rec.Thread(rec.Process("cluster"), "route")
	}
	for i, dev := range devs {
		denv := env
		if w != nil {
			denv = w.AddShard()
			if setup != nil {
				setup(i, denv)
			}
		}
		d := core.NewWithDevice(denv, dev, mkCfg(i, dev))
		d.Start()
		c.disps = append(c.disps, d)
		c.capacity = append(c.capacity, dev.NumSMs*dev.SM.MaxThreads)
	}
	// The front registers its instruments after the dispatchers' so the
	// shared meter's export order is fixed.
	c.front = newFront(env, p.Name())
	return c, nil
}

// World returns the conservative-window engine the cluster runs on, or nil
// when it runs on a single serial Env.
func (c *Cluster) World() *sim.World { return c.world }

// Size returns the number of GPUs.
func (c *Cluster) Size() int { return len(c.disps) }

// Dispatcher returns the i-th GPU's dispatcher.
func (c *Cluster) Dispatcher(i int) *core.Dispatcher { return c.disps[i] }

// RegisterModel compiles the model once per distinct device configuration
// and registers it everywhere: replicas with the same configuration share
// one compilation, which nothing writes after profiling (DESIGN §18), and
// heterogeneous replicas are profiled separately. The per-device profiles
// also feed the gateway's latency predictor: each replica advertises queue
// depth and request cost in its own profiled nanoseconds. Registration is
// all or nothing: every replica is checked before the model joins any.
func (c *Cluster) RegisterModel(m *model.Model, cfg compiler.Config, profileRuns int) error {
	compiled := make(map[gpu.Config]*compiler.Instrumented, 1)
	inss := make([]*compiler.Instrumented, len(c.disps))
	for i, d := range c.disps {
		dev := d.Device().Config()
		ins := compiled[dev]
		if ins == nil {
			var err error
			if ins, err = compiler.Compile(m, cfg, dev, profileRuns); err != nil {
				return err
			}
			compiled[dev] = ins
		}
		if err := d.CheckModel(ins); err != nil {
			return err
		}
		inss[i] = ins
	}
	costs := make([]sim.Time, len(c.disps))
	for i, d := range c.disps {
		if err := d.RegisterModel(inss[i]); err != nil {
			return err
		}
		costs[i] = inss[i].Profile.TotalTime()
	}
	c.costNs[m.Name] = costs
	c.weightBytes[m.Name] = int64(m.WeightBytes)
	c.modelOrder = append(c.modelOrder, m.Name)
	return nil
}

// SetRoutable marks replica i eligible (or not) for new routing decisions.
// Draining a replica — SetRoutable(i, false) — is voluntary: requests
// already routed there run to their terminal event (watch InFlight reach
// zero), only new arrivals go elsewhere. Contrast Crash, which is
// involuntary and fails pending work over.
func (c *Cluster) SetRoutable(i int, ok bool) { c.routable[i] = ok }

// Routable reports whether the gateway may route new work to replica i.
func (c *Cluster) Routable(i int) bool { return c.routable[i] }

// InFlight returns the number of requests routed to replica i and not yet
// terminal — the autoscaler's drain-completion signal.
func (c *Cluster) InFlight(i int) int { return c.inflight[i] }

// Warmup pages every registered model's weights into replica i's device
// memory — the autoscaler's cold-start: a newly activated replica pays the
// real host→device transfer over its PCIe link before it can serve warm.
// Models already resident (or loading) are skipped, as are models that do
// not fit the free budget — warmup never evicts a warmer neighbor. Without
// a VRAM budget the full registered weight set pays one bulk transfer at
// the link's modeled bandwidth. done fires exactly once on the control
// timeline when the last transfer lands (immediately-after-now when there
// is nothing to page). Returns the number of bytes being paged.
func (c *Cluster) Warmup(i int, done func()) int64 {
	d := c.disps[i]
	if c.rec != nil {
		c.rec.InstantArgs(c.routeTrack, "replica", "warmup", c.env.Now(),
			trace.Int("gpu", int64(i)))
	}
	// Transfer completions fire as replica-shard events; the autoscaler's
	// state lives on the control timeline, so cross back through the
	// barrier's canonical post order, which does not depend on the order
	// shards execute in.
	finish := done
	if w := c.world; w != nil {
		finish = func() { w.Post(i, done) }
	}
	mgr := d.VRAM()
	if mgr == nil {
		var total int64
		for _, name := range c.modelOrder {
			total += c.weightBytes[name]
		}
		c.env.After(d.ColdLoadDuration(total), done)
		return total
	}
	shard := d.Env()
	var bytes int64
	outstanding := 0
	for _, name := range c.modelOrder {
		wb := c.weightBytes[name]
		if wb <= 0 || !mgr.Registered(name) || mgr.State(name) != vram.Cold {
			continue
		}
		if wb > mgr.FreeBytes() {
			continue
		}
		if err := mgr.BeginLoad(name, shard.Now()); err != nil {
			continue
		}
		outstanding++
		bytes += wb
		name := name
		d.PCIe().Transfer(cudart.HostToDevice, int(wb), func() {
			mgr.FinishLoad(name, shard.Now())
			outstanding--
			if outstanding == 0 {
				finish()
			}
		})
	}
	if outstanding == 0 {
		// Nothing to page — already warm, or nothing fits. Still deliver
		// done asynchronously so the caller sees one consistent shape.
		c.env.After(0, done)
	}
	return bytes
}

// EvictAll drops every resident, unpinned model from replica i's device
// memory (no-op without a VRAM budget) — the autoscaler's park step: a
// retired replica releases its weights, so a later re-activation pays the
// full cold-start again.
func (c *Cluster) EvictAll(i int) {
	mgr := c.disps[i].VRAM()
	if mgr == nil {
		return
	}
	for _, name := range mgr.ResidentModels() {
		if mgr.Pinned(name) == 0 {
			_ = mgr.Evict(name)
		}
	}
	if c.rec != nil {
		c.rec.InstantArgs(c.routeTrack, "replica", "park-evict", c.env.Now(),
			trace.Int("gpu", int64(i)))
	}
}

// Conn is a client connection spanning the whole cluster: one shared
// memory region per GPU, with completions funneled to a single callback.
// The connection tracks where each outstanding request was routed so a
// replica crash can fail pending requests over to the survivors; late
// events from a crashed-but-still-draining replica are deduplicated (first
// terminal outcome wins).
type Conn struct {
	cluster *Cluster
	conns   []*core.ClientConn
	// pending maps each outstanding request to its current route (and keeps
	// the original request for failover re-submission).
	pending map[uint64]route
	// order lists outstanding request ids in submission order. Failover
	// walks it so crashed requests re-enter the policy in the order they
	// were submitted — an explicit insertion-ordered structure rather than
	// map iteration (nondeterministic) or an id sort (wrong order if ids
	// are not monotone). Entries are removed lazily: ids no longer pending
	// (or re-routed since) are skipped and periodically compacted away.
	order []uint64

	// OnComplete receives every finished request id, whichever GPU served
	// it.
	OnComplete func(reqID uint64)
	// OnFailed receives every request id that terminated with a typed error
	// (dispatcher-side failures pass through; ErrReplicaCrashed when
	// failover was impossible; gateway.ErrTenantShed when admission refused
	// the request).
	OnFailed func(reqID uint64, err error)
}

type route struct {
	gpu int
	req core.Request
}

// termCrossing is the PostCall context for a connection's completions from
// one replica; terminalOK is the matching callback (arg = request id).
type termCrossing struct {
	cn *Conn
	g  int
}

var terminalOK sim.EventFn = func(ctx any, arg uint64) {
	t := ctx.(*termCrossing)
	t.cn.terminal(t.g, arg, nil)
}

// Connect attaches a client to every GPU in the cluster.
func (c *Cluster) Connect() *Conn {
	cn := &Conn{cluster: c, pending: make(map[uint64]route)}
	for g, d := range c.disps {
		g := g
		conn := d.Connect()
		if w := c.world; w != nil {
			// The dispatcher's callbacks fire as replica-shard events;
			// terminal touches cluster-wide state (pending, inflight, the
			// user callbacks), so it must cross to the control timeline.
			// The post stamps the true delivery time and the barrier replays
			// posts in canonical order, so results do not depend on the
			// order shards execute in. Completions ride the
			// typed PostCall form — one per request, so a closure per
			// message would be a steady-state allocation.
			tc := &termCrossing{cn: cn, g: g}
			conn.OnComplete = func(id uint64) {
				w.PostCall(g, terminalOK, tc, id)
			}
			conn.OnFailed = func(id uint64, err error) {
				w.Post(g, func() { cn.terminal(g, id, err) })
			}
		} else {
			conn.OnComplete = func(id uint64) { cn.terminal(g, id, nil) }
			conn.OnFailed = func(id uint64, err error) { cn.terminal(g, id, err) }
		}
		cn.conns = append(cn.conns, conn)
	}
	c.conns = append(c.conns, cn)
	return cn
}

// terminal folds one replica's completion or typed failure into the
// connection. Events from a GPU the request is no longer routed to (a
// crashed replica draining, or a duplicate) are dropped.
func (cn *Conn) terminal(g int, id uint64, err error) {
	rt, ok := cn.pending[id]
	if !ok || rt.gpu != g {
		return
	}
	delete(cn.pending, id)
	cn.cluster.unroute(g, rt.req)
	if err != nil {
		if cn.OnFailed != nil {
			cn.OnFailed(id, err)
		}
		return
	}
	if cn.OnComplete != nil {
		cn.OnComplete(id)
	}
}

// unroute refunds a request's routing account on replica g.
func (c *Cluster) unroute(g int, req core.Request) {
	c.inflight[g]--
	c.pendingNs[g] -= c.costOf(g, req.Model)
}

// costOf returns the profiled service estimate of the model on replica g
// (zero for models registered outside RegisterModel).
func (c *Cluster) costOf(g int, model string) sim.Time {
	if costs, ok := c.costNs[model]; ok {
		return costs[g]
	}
	return 0
}

// loadPenalty estimates the weight-load time a cold request would pay on
// replica g: the model's weight footprint over the replica's PCIe link
// (including any injected brownout), zero when the replica has no VRAM
// budget or the model is unknown.
func (c *Cluster) loadPenalty(g int, model string) sim.Time {
	bytes := c.weightBytes[model]
	if bytes <= 0 {
		return 0
	}
	if c.disps[g].PCIe() == nil {
		return 0
	}
	return c.disps[g].ColdLoadDuration(bytes)
}

// Submit routes the request through the admission controller and the
// gateway policy to one live GPU. It returns the chosen GPU index; -1 if
// that GPU's ring was full or no live replica is routable (retryable); or
// Failed if admission refused the request or no replica is alive
// (terminal — OnFailed has fired with gateway.ErrTenantShed or
// ErrReplicaCrashed).
func (cn *Conn) Submit(req core.Request) int {
	c := cn.cluster
	if err := c.admit(req.Tenant); err != nil {
		c.shed(metrics.JobRecord{
			ID: req.ID, Model: req.Model, Client: req.Client, Tenant: req.Tenant,
			Submit: req.Submit,
		}, err)
		if c.rec != nil {
			c.rec.InstantArgs(c.routeTrack, req.Model, "shed", c.env.Now(),
				trace.Int("id", int64(req.ID)),
				trace.Str("tenant", req.Tenant))
		}
		if cn.OnFailed != nil {
			cn.OnFailed(req.ID, err)
		}
		return Failed
	}
	g := cn.submitRouted(req)
	if g == -1 && c.LiveReplicas() == 0 {
		if cn.OnFailed != nil {
			cn.OnFailed(req.ID, ErrReplicaCrashed)
		}
		return Failed
	}
	return g
}

// submitRouted routes an already-admitted request (failover re-entries
// skip admission — the request was charged once at first submission).
func (cn *Conn) submitRouted(req core.Request) int {
	c := cn.cluster
	// The policy only sees live replicas. Its contract returns a position
	// in the slice it was given, so the compacted slice renumbers Index to
	// its own positions and ID keeps the stable physical index, the real
	// GPU.
	views := c.views[:0]
	for i := range c.disps {
		if !c.alive[i] || !c.routable[i] {
			continue
		}
		v := gateway.Replica{
			Index:    len(views),
			ID:       i,
			InFlight: c.inflight[i],
			Capacity: c.capacity[i],
			QueueNs:  c.pendingNs[i],
			CostNs:   c.costOf(i, req.Model),
		}
		v.Warm, v.Loading = c.residency(i, req.Model)
		if !v.Warm {
			v.LoadPenaltyNs = c.loadPenalty(i, req.Model)
		}
		views = append(views, v)
	}
	c.views = views
	if len(views) == 0 {
		return -1
	}
	pick := c.policy.Pick(gateway.Request{Model: req.Model}, views)
	if pick < 0 || pick >= len(views) {
		panic(fmt.Sprintf("cluster: policy %q picked GPU %d of %d", c.policy.Name(), pick, len(views)))
	}
	// Copy the pick out before anything else can route: the next pick
	// refills the buffer.
	chosen := views[pick]
	g := chosen.ID
	orig := req
	req.Client = cn.conns[g].ID
	if !cn.conns[g].Submit(req) {
		// A full ring refuses the request before it is routed anywhere;
		// the caller's retry is the routing decision that counts.
		return -1
	}
	if c.rec != nil {
		c.rec.InstantArgs(c.routeTrack, req.Model, "route", c.env.Now(),
			trace.Int("gpu", int64(g)),
			trace.Str("balancer", c.policy.Name()),
			trace.Bool("warm", chosen.Warm),
			trace.Bool("loading", chosen.Loading))
	}
	c.routed(chosen)
	cn.pending[req.ID] = route{gpu: g, req: orig}
	cn.order = append(cn.order, req.ID)
	if len(cn.order) > 4*len(cn.pending)+16 {
		cn.compactOrder()
	}
	c.inflight[g]++
	c.pendingNs[g] += chosen.CostNs
	return g
}

// compactOrder drops order entries for requests that have terminated,
// keeping the first (original-submission) occurrence of each pending id.
func (cn *Conn) compactOrder() {
	kept := cn.order[:0]
	seen := make(map[uint64]bool, len(cn.pending))
	for _, id := range cn.order {
		if _, ok := cn.pending[id]; ok && !seen[id] {
			seen[id] = true
			kept = append(kept, id)
		}
	}
	cn.order = kept
}

// Crash kills replica i (fault injection: the whole serving process died).
// The replica's dispatcher loop stops, the policy stops seeing it,
// and every connection's requests pending on it fail over to the surviving
// replicas — re-entering the policy with their original submit times, so
// recovery latency shows up in JCT. When no live replica remains, pending
// requests terminate with ErrReplicaCrashed through Conn.OnFailed. Late
// completions from the crashed replica's drained pipeline are ignored.
func (c *Cluster) Crash(i int) {
	if !c.alive[i] {
		return
	}
	c.alive[i] = false
	c.crashes++
	c.disps[i].Stop()
	if c.rec != nil {
		c.rec.InstantArgs(c.routeTrack, "replica", "crash", c.env.Now(),
			trace.Int("gpu", int64(i)), trace.Int("live", int64(c.LiveReplicas())))
	}
	for _, cn := range c.conns {
		cn.failover(i)
	}
}

// failover re-routes the connection's requests pending on crashed GPU g, in
// submission order (via the insertion-ordered id list — never map
// iteration, whose order varies run to run). Re-entries skip admission:
// each request was charged against its tenant once, at first submission.
func (cn *Conn) failover(g int) {
	var ids []uint64
	for _, id := range cn.order {
		if rt, ok := cn.pending[id]; ok && rt.gpu == g {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		rt, ok := cn.pending[id]
		if !ok || rt.gpu != g {
			// A duplicate order entry for an id that was already failed
			// over (and is now routed elsewhere, or terminated).
			continue
		}
		delete(cn.pending, id)
		cn.cluster.unroute(g, rt.req)
		if cn.submitRouted(rt.req) < 0 {
			if cn.OnFailed != nil {
				cn.OnFailed(id, ErrReplicaCrashed)
			}
		}
	}
}

// Alive reports whether replica i has not crashed.
func (c *Cluster) Alive(i int) bool { return c.alive[i] }

// LiveReplicas returns the number of replicas still alive.
func (c *Cluster) LiveReplicas() int {
	n := 0
	for _, a := range c.alive {
		if a {
			n++
		}
	}
	return n
}

// Crashes returns how many replicas have been crashed.
func (c *Cluster) Crashes() int { return c.crashes }

// residency classifies GPU i's copy of the named model's weights. A GPU
// without a VRAM budget holds everything, so it reports warm.
func (c *Cluster) residency(i int, modelName string) (warm, loading bool) {
	mgr := c.disps[i].VRAM()
	if mgr == nil || !mgr.Registered(modelName) {
		return true, false
	}
	switch mgr.State(modelName) {
	case vram.Resident:
		return true, false
	case vram.Loading:
		return false, true
	default:
		return false, false
	}
}

// Collector returns a merged view of all GPUs' completion records, plus
// the failed records of gateway-shed requests.
func (c *Cluster) Collector() *metrics.Collector {
	cols := make([]*metrics.Collector, len(c.disps))
	for i, d := range c.disps {
		cols[i] = d.Collector()
	}
	return c.merged(cols...)
}
