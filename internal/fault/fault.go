// Package fault is the simulator's deterministic fault-injection layer: a
// seeded, virtual-time-stamped schedule of degradations (the FaultPlan)
// that an Injector wires into a running experiment's components. It
// stress-tests the paper's central claim from the failure side — §5.2's
// dispatcher builds its occupancy mirror from instrumented notifications,
// so the interesting question is what happens when those notifications
// (or the SMs, PCIe link, weight loads, clients, and replicas around
// them) misbehave. Every injected fault is paired with a reaction
// elsewhere in the tree (kernel watchdog and bounded re-dispatch in
// internal/core, load retry with backoff, admission shedding, cluster
// failover), preserving one invariant: no admitted job is silently lost —
// each ends in exactly one completion or one typed error.
//
// Plans are read from JSON (ParsePlan, `paella-sim -faults plan.json`) or
// built by Synthesize (`paella-sim -chaos` and the chaos experiment);
// equal plans and seeds give byte-identical runs.
package fault

import (
	"encoding/json"
	"fmt"
	"sort"

	"paella/internal/sim"
)

// Kind names one category of injected fault.
type Kind string

// The fault vocabulary. Each kind targets one component; events whose
// target is absent from the run (e.g. VRAM pressure without a VRAM budget)
// are counted as skipped, not errors, so one plan works across experiment
// configurations.
const (
	// KindRetireSM takes SM index SM offline (ECC retirement semantics:
	// resident blocks drain, no new placements). The dispatcher's mirror
	// rescales to the surviving capacity.
	KindRetireSM Kind = "retire-sm"
	// KindRestoreSM brings a retired SM back online.
	KindRestoreSM Kind = "restore-sm"
	// KindPCIeBrownout scales the PCIe link bandwidth by Factor (0 < f ≤ 1);
	// weight loads and tensor copies slow accordingly.
	KindPCIeBrownout Kind = "pcie-brownout"
	// KindPCIeRestore restores full PCIe bandwidth.
	KindPCIeRestore Kind = "pcie-restore"
	// KindDropNotifs makes the device's notification emit path drop each
	// record with probability Drop and duplicate it with probability Dup
	// (seeded; zero both to clear). The dispatcher's watchdog and
	// clamp/infer logic recover.
	KindDropNotifs Kind = "drop-notifs"
	// KindFailLoad makes the next Count weight loads of Model fail; the
	// dispatcher retries with exponential backoff up to its budget.
	KindFailLoad Kind = "fail-load"
	// KindVRAMPressure carves Bytes out of the device-memory budget (a
	// co-tenant allocation spike), evicting LRU unpinned models.
	KindVRAMPressure Kind = "vram-pressure"
	// KindVRAMRelease returns all injected memory pressure.
	KindVRAMRelease Kind = "vram-release"
	// KindDisconnectClient severs client index Client mid-flight; its live
	// jobs terminate with a typed error, queued requests are rejected.
	KindDisconnectClient Kind = "disconnect-client"
	// KindCrashReplica kills replica index Replica of a cluster; pending
	// requests fail over to the survivors.
	KindCrashReplica Kind = "crash-replica"
)

// Event is one scheduled fault. At is virtual time; the remaining fields
// parameterize the kind (unused ones stay zero).
type Event struct {
	// At is when the fault fires, in virtual nanoseconds.
	At sim.Time `json:"at_ns"`
	// Kind selects the fault.
	Kind Kind `json:"kind"`

	// SM is the target SM index (retire-sm, restore-sm).
	SM int `json:"sm,omitempty"`
	// Factor is the PCIe bandwidth multiplier (pcie-brownout).
	Factor float64 `json:"factor,omitempty"`
	// Drop and Dup are per-record probabilities (drop-notifs).
	Drop float64 `json:"drop,omitempty"`
	Dup  float64 `json:"dup,omitempty"`
	// Model and Count select weight-load failures (fail-load).
	Model string `json:"model,omitempty"`
	Count int    `json:"count,omitempty"`
	// Bytes is the pressure size (vram-pressure).
	Bytes int64 `json:"bytes,omitempty"`
	// Client is the target client index (disconnect-client).
	Client int `json:"client,omitempty"`
	// Replica is the target replica index (crash-replica).
	Replica int `json:"replica,omitempty"`
}

// Plan is a reproducible fault schedule: a seed (driving every
// probabilistic decision, e.g. per-notification drops) plus an ordered
// event list.
type Plan struct {
	// Seed drives the injector's randomness; equal seeds replay
	// identically.
	Seed int64 `json:"seed"`
	// Events fire at their virtual times, earliest first.
	Events []Event `json:"events"`
}

// Validate checks every event's kind and parameters.
func (p *Plan) Validate() error {
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("fault: event %d: negative time %d", i, e.At)
		}
		switch e.Kind {
		case KindRetireSM, KindRestoreSM:
			if e.SM < 0 {
				return fmt.Errorf("fault: event %d: negative SM index", i)
			}
		case KindPCIeBrownout:
			if e.Factor <= 0 || e.Factor > 1 {
				return fmt.Errorf("fault: event %d: brownout factor %v outside (0,1]", i, e.Factor)
			}
		case KindPCIeRestore, KindVRAMRelease:
		case KindDropNotifs:
			if e.Drop < 0 || e.Drop > 1 || e.Dup < 0 || e.Dup > 1 || e.Drop+e.Dup > 1 {
				return fmt.Errorf("fault: event %d: drop %v / dup %v not probabilities", i, e.Drop, e.Dup)
			}
		case KindFailLoad:
			if e.Model == "" || e.Count <= 0 {
				return fmt.Errorf("fault: event %d: fail-load needs model and positive count", i)
			}
		case KindVRAMPressure:
			if e.Bytes <= 0 {
				return fmt.Errorf("fault: event %d: vram-pressure needs positive bytes", i)
			}
		case KindDisconnectClient:
			if e.Client < 0 {
				return fmt.Errorf("fault: event %d: negative client index", i)
			}
		case KindCrashReplica:
			if e.Replica < 0 {
				return fmt.Errorf("fault: event %d: negative replica index", i)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

// Sorted returns the events ordered by time (stable, so same-time events
// keep their plan order).
func (p *Plan) Sorted() []Event {
	out := append([]Event(nil), p.Events...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out
}

// ParsePlan decodes and validates a JSON plan.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Synthesize builds a plan whose severity scales with intensity ∈ [0,1]
// over the given horizon — the chaos experiment's sweep axis:
//
//   - intensity 0: empty plan (healthy baseline).
//   - low: one SM retired mid-run, a mild PCIe brownout window, a trickle
//     of dropped notifications.
//   - high: several SMs retired, a deep brownout, percent-level
//     notification loss plus duplication.
//
// sms is the device's SM count (retirements stay a strict minority so the
// run keeps making progress). Equal arguments give equal plans.
func Synthesize(seed int64, intensity float64, horizon sim.Time, sms int) *Plan {
	if intensity < 0 {
		intensity = 0
	}
	if intensity > 1 {
		intensity = 1
	}
	p := &Plan{Seed: seed}
	if intensity == 0 {
		return p
	}
	// Notification loss from the start: up to 2% dropped, 0.5% duplicated.
	p.Events = append(p.Events, Event{
		At:   0,
		Kind: KindDropNotifs,
		Drop: 0.02 * intensity,
		Dup:  0.005 * intensity,
	})
	// Retire up to a quarter of the SMs, spread over the first half of the
	// horizon.
	retire := int(float64(sms) / 4 * intensity)
	if retire < 1 {
		retire = 1
	}
	for i := 0; i < retire; i++ {
		p.Events = append(p.Events, Event{
			At:   horizon / 4 * sim.Time(i+1) / sim.Time(retire) * 2,
			Kind: KindRetireSM,
			SM:   i,
		})
	}
	// One brownout window in the middle third: bandwidth drops to as low
	// as 20% of nominal.
	p.Events = append(p.Events, Event{
		At:     horizon / 3,
		Kind:   KindPCIeBrownout,
		Factor: 1 - 0.8*intensity,
	}, Event{
		At:   horizon * 2 / 3,
		Kind: KindPCIeRestore,
	})
	return p
}
