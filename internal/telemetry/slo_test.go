package telemetry

import (
	"testing"

	"paella/internal/metrics"
	"paella/internal/sim"
)

// feed pushes n records at time t with the given JCT outcome.
func feed(m *Meter, t sim.Time, n int, jct sim.Time, failed bool) {
	for i := 0; i < n; i++ {
		r := metrics.JobRecord{Submit: t - jct, Delivered: t, Failed: failed}
		m.RecordJob(t, &r)
	}
}

func TestSLOBurnRateFiresAndResolves(t *testing.T) {
	m := NewMeter("m", 100)
	// Target 90% within 50ns → budget 0.1; burn 2 → fire when >20% of
	// requests miss over both the 1000ns short window and the 10·1000ns
	// long window.
	m.SLO(SLOConfig{Name: "goodput@50", Deadline: 50, Target: 0.9, Short: 1000, Long: 10_000})

	// Healthy traffic: all meet the deadline — no alerts.
	for i := 0; i < 20; i++ {
		feed(m, sim.Time(i*500), 1, 40, false)
	}
	if n := len(m.Alerts()); n != 0 {
		t.Fatalf("healthy traffic produced %d alerts", n)
	}

	// Sustained misses: every request blows the deadline. Short window
	// saturates immediately; the long window still carries the healthy
	// history, so firing needs enough bad volume to cross 20% overall.
	at := sim.Time(20_000)
	for i := 0; i < 30; i++ {
		feed(m, at+sim.Time(i*200), 1, 500, false)
	}
	alerts := m.Alerts()
	if len(alerts) != 1 || !alerts[0].Firing {
		t.Fatalf("sustained misses: alerts = %+v, want exactly one firing", alerts)
	}
	if alerts[0].SLO != "goodput@50" {
		t.Errorf("alert SLO = %q", alerts[0].SLO)
	}
	if alerts[0].BurnShort < 2 || alerts[0].BurnLong < 2 {
		t.Errorf("firing alert burn rates %v/%v below threshold", alerts[0].BurnShort, alerts[0].BurnLong)
	}

	// Recovery: healthy traffic again until the short window clears.
	rt := at + sim.Time(40_000)
	for i := 0; i < 30; i++ {
		feed(m, rt+sim.Time(i*200), 1, 10, false)
	}
	alerts = m.Alerts()
	if len(alerts) != 2 || alerts[1].Firing {
		t.Fatalf("recovery: alerts = %+v, want firing then resolved", alerts)
	}
	if alerts[1].At < alerts[0].At {
		t.Error("alerts out of order")
	}
}

func TestSLOFailuresConsumeBudget(t *testing.T) {
	m := NewMeter("m", 100)
	m.SLO(SLOConfig{Name: "jct", Deadline: 1000, Target: 0.5, Short: 100, Long: 1000})
	// Fast but failed: JCT within deadline must still count as bad.
	for i := 0; i < 10; i++ {
		feed(m, sim.Time(i*50), 1, 10, true)
	}
	if len(m.Alerts()) == 0 {
		t.Fatal("all-failed traffic never fired the JCT SLO")
	}
}

func TestSLOTTFTPopulation(t *testing.T) {
	m := NewMeter("m", 100)
	m.SLO(SLOConfig{Name: "ttft@50", Metric: SLOTTFT, Deadline: 50, Target: 0.5, Short: 100, Long: 1000})

	// Non-generative successes never produce a token: out of population,
	// no budget consumed, no alert possible.
	for i := 0; i < 20; i++ {
		r := metrics.JobRecord{Submit: sim.Time(i * 10), Delivered: sim.Time(i*10 + 500)}
		m.RecordJob(r.Delivered, &r)
	}
	if n := len(m.Alerts()); n != 0 {
		t.Fatalf("non-generative records moved the TTFT SLO: %d alerts", n)
	}

	// Generative failures without a first token consume budget.
	for i := 0; i < 10; i++ {
		r := metrics.JobRecord{Submit: sim.Time(i * 10), Delivered: sim.Time(i*10 + 5), Failed: true, PromptTokens: 8}
		m.RecordJob(r.Delivered, &r)
	}
	if len(m.Alerts()) == 0 {
		t.Fatal("tokenless failures never fired the TTFT SLO")
	}
}

func TestSLODefaults(t *testing.T) {
	m := NewMeter("m", 100)
	m.SLO(SLOConfig{Name: "d", Deadline: 50, Target: 0.99})
	s := m.slos[0]
	if s.cfg.Short != sim.Second || s.cfg.Long != 10*sim.Second {
		t.Errorf("defaults = %+v", s.cfg)
	}
	if len(s.buckets) != 10 {
		t.Errorf("ring size = %d, want 10", len(s.buckets))
	}
	// Perfect target: budget clamps to 1e-9 rather than dividing by zero.
	m.SLO(SLOConfig{Name: "p", Deadline: 50, Target: 1.0})
	feed(m, 100, 1, 500, false)
	// Must not panic or emit NaN burn rates.
	for _, a := range m.Alerts() {
		if a.BurnShort != a.BurnShort || a.BurnLong != a.BurnLong { // NaN check
			t.Errorf("NaN burn rate in %+v", a)
		}
	}
}

func TestSLOLongIdleGap(t *testing.T) {
	m := NewMeter("m", 100)
	m.SLO(SLOConfig{Name: "g", Deadline: 50, Target: 0.5, Short: 100, Long: 1000})
	feed(m, 0, 5, 500, false) // all bad → fires
	if len(m.Alerts()) != 1 {
		t.Fatalf("alerts = %+v", m.Alerts())
	}
	// A gap far beyond the long window must age everything out; a single
	// good request then resolves (burn over the ring is 0).
	feed(m, sim.Time(1_000_000_000), 1, 10, false)
	alerts := m.Alerts()
	if len(alerts) != 2 || alerts[1].Firing {
		t.Fatalf("after idle gap: alerts = %+v, want resolved", alerts)
	}
	if alerts[1].BurnLong != 0 {
		t.Errorf("aged-out ring still burning: %v", alerts[1].BurnLong)
	}
}
