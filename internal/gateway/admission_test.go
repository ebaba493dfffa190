package gateway

import (
	"testing"

	"paella/internal/sim"
)

func TestAdmissionBypassesUntenanted(t *testing.T) {
	a := NewAdmission(TenantLimit{RatePerSec: 1, Burst: 1})
	for i := 0; i < 100; i++ {
		if err := a.Admit("", sim.Time(i)); err != nil {
			t.Fatal("untenanted request shed")
		}
	}
	if got := a.TotalShed(); got != 0 {
		t.Fatalf("TotalShed = %d, want 0", got)
	}
}

func TestAdmissionBurstThenShed(t *testing.T) {
	a := NewAdmission(TenantLimit{RatePerSec: 100, Burst: 5})
	shed := 0
	// 10 back-to-back requests at t=0: the 5-deep bucket admits 5.
	for i := 0; i < 10; i++ {
		if err := a.Admit("t0", 0); err != nil {
			if err != ErrTenantShed {
				t.Fatalf("unexpected error %v", err)
			}
			shed++
		}
	}
	if shed != 5 {
		t.Fatalf("shed %d of 10, want 5", shed)
	}
	// 100 req/s refills one token per 10ms.
	if err := a.Admit("t0", 10*sim.Millisecond); err != nil {
		t.Fatal("refilled token refused")
	}
	if err := a.Admit("t0", 10*sim.Millisecond); err == nil {
		t.Fatal("second request on one refilled token admitted")
	}
}

func TestAdmissionSustainedRate(t *testing.T) {
	a := NewAdmission(TenantLimit{RatePerSec: 1000})
	admitted := 0
	// Offer 2000 req/s for one virtual second: every 0.5ms.
	for i := 0; i < 2000; i++ {
		if a.Admit("t", sim.Time(i)*500*sim.Microsecond) == nil {
			admitted++
		}
	}
	// Sustained throughput must track the configured rate (burst gives a
	// little slack at the start).
	if admitted < 950 || admitted > 1150 {
		t.Fatalf("admitted %d of 2000 at 2× rate, want ≈1000", admitted)
	}
}

func TestAdmissionZeroRateUnlimited(t *testing.T) {
	// A zero-rate limit admits every request of every tenant.
	a := NewAdmission(TenantLimit{})
	for i := 0; i < 50; i++ {
		if err := a.Admit("t", 0); err != nil {
			t.Fatal("zero-rate tenant shed")
		}
	}
	if got := a.TotalShed(); got != 0 {
		t.Fatalf("TotalShed = %d, want 0", got)
	}
}

func TestAdmissionStatsSorted(t *testing.T) {
	a := NewAdmission(TenantLimit{RatePerSec: 1, Burst: 1})
	a.Admit("zeta", 0)
	a.Admit("alpha", 0)
	a.Admit("alpha", 0) // shed
	st := a.Stats()
	if len(st) != 2 || st[0].Tenant != "alpha" || st[1].Tenant != "zeta" {
		t.Fatalf("stats = %+v, want sorted [alpha zeta]", st)
	}
	if st[0].Admitted != 1 || st[0].Shed != 1 {
		t.Fatalf("alpha stats = %+v, want 1 admitted 1 shed", st[0])
	}
}

func TestAdmissionNilSafe(t *testing.T) {
	var a *Admission
	if err := a.Admit("t", 0); err != nil {
		t.Fatal("nil admission shed")
	}
	if a.Stats() != nil || a.TotalShed() != 0 {
		t.Fatal("nil admission reported stats")
	}
}

func TestAdmissionDefaultBurst(t *testing.T) {
	// Burst 0 defaults to rate/10 (min 1): at 50 req/s that is 5 tokens.
	a := NewAdmission(TenantLimit{RatePerSec: 50})
	admitted := 0
	for i := 0; i < 10; i++ {
		if a.Admit("t", 0) == nil {
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("admitted %d instantaneous requests, want burst 5", admitted)
	}
}
