package fault

import (
	"encoding/json"
	"reflect"
	"testing"

	"paella/internal/sim"
)

// TestPlanRoundTrip: json.Marshal ∘ ParsePlan is the identity on a plan using
// every event kind.
func TestPlanRoundTrip(t *testing.T) {
	p := &Plan{
		Seed: 7,
		Events: []Event{
			{At: 0, Kind: KindDropNotifs, Drop: 0.01, Dup: 0.002},
			{At: 1 * sim.Millisecond, Kind: KindRetireSM, SM: 3},
			{At: 2 * sim.Millisecond, Kind: KindPCIeBrownout, Factor: 0.5},
			{At: 3 * sim.Millisecond, Kind: KindFailLoad, Model: "resnet18", Count: 2},
			{At: 4 * sim.Millisecond, Kind: KindVRAMPressure, Bytes: 64 << 20},
			{At: 5 * sim.Millisecond, Kind: KindVRAMRelease},
			{At: 6 * sim.Millisecond, Kind: KindPCIeRestore},
			{At: 7 * sim.Millisecond, Kind: KindRestoreSM, SM: 3},
			{At: 8 * sim.Millisecond, Kind: KindDisconnectClient, Client: 1},
			{At: 9 * sim.Millisecond, Kind: KindCrashReplica, Replica: 1},
		},
	}
	doc, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePlan(doc)
	if err != nil {
		t.Fatalf("ParsePlan(json.Marshal(p)): %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

// TestValidateRejects: each malformed event is refused with an error.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
	}{
		{"unknown kind", Event{Kind: "meteor-strike"}},
		{"negative time", Event{At: -1, Kind: KindPCIeRestore}},
		{"negative sm", Event{Kind: KindRetireSM, SM: -1}},
		{"zero brownout factor", Event{Kind: KindPCIeBrownout, Factor: 0}},
		{"brownout factor above one", Event{Kind: KindPCIeBrownout, Factor: 1.5}},
		{"drop above one", Event{Kind: KindDropNotifs, Drop: 1.5}},
		{"drop plus dup above one", Event{Kind: KindDropNotifs, Drop: 0.7, Dup: 0.7}},
		{"fail-load without model", Event{Kind: KindFailLoad, Count: 1}},
		{"fail-load without count", Event{Kind: KindFailLoad, Model: "x"}},
		{"pressure without bytes", Event{Kind: KindVRAMPressure}},
		{"negative client", Event{Kind: KindDisconnectClient, Client: -2}},
		{"negative replica", Event{Kind: KindCrashReplica, Replica: -1}},
	}
	for _, tc := range cases {
		p := &Plan{Events: []Event{tc.ev}}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.ev)
		}
	}
}

// TestSortedStable: Sorted orders by time but keeps plan order for ties,
// and does not mutate the plan.
func TestSortedStable(t *testing.T) {
	p := &Plan{Events: []Event{
		{At: 20, Kind: KindPCIeRestore},
		{At: 10, Kind: KindRetireSM, SM: 1},
		{At: 10, Kind: KindRetireSM, SM: 2},
		{At: 0, Kind: KindDropNotifs, Drop: 0.1},
	}}
	s := p.Sorted()
	wantSM := []int{-1, 1, 2, -1}
	for i, e := range s {
		if i > 0 && e.At < s[i-1].At {
			t.Fatalf("Sorted out of order at %d: %v < %v", i, e.At, s[i-1].At)
		}
		if e.Kind == KindRetireSM && e.SM != wantSM[i] {
			t.Fatalf("tie order broken: event %d has SM %d, want %d", i, e.SM, wantSM[i])
		}
	}
	if p.Events[0].At != 20 {
		t.Fatal("Sorted mutated the plan")
	}
}

// TestSynthesize: equal arguments give equal plans, intensity 0 is empty,
// severity parameters scale with intensity, and every plan validates.
func TestSynthesize(t *testing.T) {
	const horizon = 4 * sim.Second
	if p := Synthesize(1, 0, horizon, 40); len(p.Events) != 0 {
		t.Fatalf("intensity 0 produced %d events", len(p.Events))
	}
	a := Synthesize(9, 0.5, horizon, 40)
	b := Synthesize(9, 0.5, horizon, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Synthesize is not deterministic")
	}
	count := func(p *Plan, k Kind) int {
		n := 0
		for _, e := range p.Events {
			if e.Kind == k {
				n++
			}
		}
		return n
	}
	for _, intensity := range []float64{0.1, 0.5, 1.0} {
		p := Synthesize(9, intensity, horizon, 40)
		if err := p.Validate(); err != nil {
			t.Fatalf("intensity %v: %v", intensity, err)
		}
		retired := count(p, KindRetireSM)
		if retired < 1 || retired > 10 {
			t.Fatalf("intensity %v retires %d of 40 SMs", intensity, retired)
		}
		if count(p, KindDropNotifs) != 1 || count(p, KindPCIeBrownout) != 1 {
			t.Fatalf("intensity %v missing drop/brownout events", intensity)
		}
	}
	low, high := Synthesize(9, 0.25, horizon, 40), Synthesize(9, 1.0, horizon, 40)
	if count(low, KindRetireSM) >= count(high, KindRetireSM) {
		t.Fatal("retirements do not grow with intensity")
	}
	if low.Events[0].Drop >= high.Events[0].Drop {
		t.Fatal("notification loss does not grow with intensity")
	}
}
