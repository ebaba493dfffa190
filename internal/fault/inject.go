package fault

import (
	"fmt"
	"math/rand"

	"paella/internal/channel"
	"paella/internal/cluster"
	"paella/internal/core"
	"paella/internal/gpu"
	"paella/internal/sim"
	"paella/internal/trace"
)

// Targets names the live components a plan's events act on. Fields may be
// nil (or empty): an event whose target is absent is skipped and counted,
// so one plan runs unchanged across differently-shaped experiments.
type Targets struct {
	// Device receives SM retirements and the notification drop/dup hook.
	Device *gpu.Device
	// Dispatcher receives PCIe brownouts, load failures, and VRAM pressure.
	Dispatcher *core.Dispatcher
	// Conns are the client connections disconnect-client indexes into.
	Conns []*core.ClientConn
	// Cluster receives replica crashes.
	Cluster *cluster.Cluster
}

// Injector schedules a plan's events onto the simulation clock and applies
// them to the targets. All randomness (per-notification drop/dup draws)
// comes from the plan's seed, so runs replay byte-identically.
type Injector struct {
	env  *sim.Env
	plan *Plan
	t    Targets
	rng  *rand.Rand

	applied map[Kind]int
	skipped map[Kind]int

	rec   *trace.Recorder
	track trace.TrackID
}

// NewInjector binds a validated plan to its targets.
func NewInjector(env *sim.Env, plan *Plan, t Targets) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		env:     env,
		plan:    plan,
		t:       t,
		rng:     rand.New(rand.NewSource(plan.Seed ^ 0x6661756c74)),
		applied: make(map[Kind]int),
		skipped: make(map[Kind]int),
	}
	if rec := trace.FromEnv(env); rec != nil {
		in.rec = rec
		in.track = rec.Thread(rec.Process("fault"), "inject")
	}
	return in, nil
}

// Install schedules every event at its virtual time. Call once, before
// (or during) the run; events in the past of the current clock fire at the
// next tick.
func (in *Injector) Install() {
	for _, e := range in.plan.Sorted() {
		e := e
		at := e.At
		if now := in.env.Now(); at < now {
			at = now
		}
		in.env.At(at, func() { in.apply(e) })
	}
}

func (in *Injector) apply(e Event) {
	ok := false
	switch e.Kind {
	case KindRetireSM:
		if d := in.t.Device; d != nil && e.SM < d.Config().NumSMs {
			d.RetireSM(e.SM)
			ok = true
		}
	case KindRestoreSM:
		if d := in.t.Device; d != nil && e.SM < d.Config().NumSMs {
			d.RestoreSM(e.SM)
			ok = true
		}
	case KindPCIeBrownout:
		if d := in.t.Dispatcher; d != nil {
			d.SetPCIeFactor(e.Factor)
			ok = true
		}
	case KindPCIeRestore:
		if d := in.t.Dispatcher; d != nil {
			d.SetPCIeFactor(1)
			ok = true
		}
	case KindDropNotifs:
		if d := in.t.Device; d != nil {
			in.setNotifFault(d, e.Drop, e.Dup)
			ok = true
		}
	case KindFailLoad:
		if d := in.t.Dispatcher; d != nil {
			for i := 0; i < e.Count; i++ {
				d.FailNextLoad(e.Model)
			}
			ok = true
		}
	case KindVRAMPressure:
		if d := in.t.Dispatcher; d != nil && d.VRAM() != nil {
			d.InjectVRAMPressure(e.Bytes)
			ok = true
		}
	case KindVRAMRelease:
		if d := in.t.Dispatcher; d != nil && d.VRAM() != nil {
			d.ReleaseVRAMPressure()
			ok = true
		}
	case KindDisconnectClient:
		if e.Client < len(in.t.Conns) && in.t.Conns[e.Client] != nil {
			in.t.Conns[e.Client].Disconnect()
			ok = true
		}
	case KindCrashReplica:
		if c := in.t.Cluster; c != nil && e.Replica < c.Size() {
			c.Crash(e.Replica)
			ok = true
		}
	}
	if ok {
		in.applied[e.Kind]++
	} else {
		in.skipped[e.Kind]++
	}
	if in.rec != nil {
		in.rec.InstantArgs(in.track, string(e.Kind), "fault", in.env.Now(),
			trace.Bool("applied", ok))
	}
}

// setNotifFault installs (or, at zero rates, clears) the per-notification
// drop/dup hook. Each record consumes exactly one draw from the seeded rng,
// so the decision sequence is a pure function of plan seed and simulation
// order.
func (in *Injector) setNotifFault(d *gpu.Device, drop, dup float64) {
	if drop == 0 && dup == 0 {
		d.SetNotifFault(nil)
		return
	}
	rng := in.rng
	d.SetNotifFault(func(channel.Notification) channel.NotifVerdict {
		x := rng.Float64()
		switch {
		case x < drop:
			return channel.NotifDrop
		case x < drop+dup:
			return channel.NotifDup
		default:
			return channel.NotifKeep
		}
	})
}

// Summary renders a one-line account of the injector's activity.
func (in *Injector) Summary() string {
	a, s := 0, 0
	for _, v := range in.applied {
		a += v
	}
	for _, v := range in.skipped {
		s += v
	}
	return fmt.Sprintf("fault: %d events applied, %d skipped (seed %d)", a, s, in.plan.Seed)
}
