package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"paella/internal/sim"
)

// oracleValidate is Spec.Validate as it stood before Generate became
// GenerateTraffic's constant shape, kept verbatim as the reference for
// TestGenerateMatchesOracle.
func oracleValidate(s Spec) error {
	switch {
	case len(s.Mix.Models) == 0:
		return fmt.Errorf("workload: empty model mix")
	case !oracleFinite(s.Sigma):
		return fmt.Errorf("workload: sigma %v", s.Sigma)
	case s.Sigma < 0:
		return fmt.Errorf("workload: negative sigma")
	case !oracleFinite(s.RatePerSec) || s.RatePerSec <= 0:
		return fmt.Errorf("workload: rate %f", s.RatePerSec)
	case s.Jobs <= 0:
		return fmt.Errorf("workload: jobs %d", s.Jobs)
	case s.Clients <= 0:
		return fmt.Errorf("workload: clients %d", s.Clients)
	case s.Tenants < 0:
		return fmt.Errorf("workload: tenants %d", s.Tenants)
	}
	for _, w := range s.Mix.Weights {
		if !oracleFinite(w) {
			return fmt.Errorf("workload: weight %v", w)
		}
		if w < 0 {
			return fmt.Errorf("workload: negative weight")
		}
	}
	return nil
}

// oracleFinite reports whether x is neither NaN nor infinite.
func oracleFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// oracleGenerate is the old Generate loop, kept verbatim: one mean gap
// for the whole trace and no horizon check.
func oracleGenerate(s Spec) ([]Request, error) {
	if err := oracleValidate(s); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	// Lognormal with E[X] = exp(µ + σ²/2); pick µ so the mean inter-arrival
	// matches the target rate.
	meanGap := float64(sim.Second) / s.RatePerSec
	mu := math.Log(meanGap) - s.Sigma*s.Sigma/2

	var wsum float64
	for _, w := range s.Mix.Weights {
		wsum += w
	}

	reqs := make([]Request, s.Jobs)
	var t float64
	for i := range reqs {
		gap := math.Exp(mu + s.Sigma*rng.NormFloat64())
		t += gap
		reqs[i] = Request{
			At:     sim.Time(t),
			Model:  oraclePickModel(rng, s.Mix, wsum),
			Client: rng.Intn(s.Clients),
		}
		if s.Tenants > 0 {
			reqs[i].Tenant = fmt.Sprintf("tenant-%d", rng.Intn(s.Tenants))
		}
	}
	return reqs, nil
}

// oraclePickModel is the old pickModel, kept verbatim.
func oraclePickModel(rng *rand.Rand, m Mix, wsum float64) string {
	x := rng.Float64() * wsum
	for i, w := range m.Weights {
		x -= w
		if x < 0 {
			return m.Models[i]
		}
	}
	return m.Models[len(m.Models)-1]
}

// randomSpec draws a Spec over the ranges the repo's callers use and past
// them: 1–6 models, σ in [0, 8], rates 0.1–1e5 req/s (log-uniform), up to
// 3,000 jobs, 0–2 tenants. About one spec in eight carries one invalid
// field or a rate of 1e-9–1e-5 req/s, whose mean gap alone passes the
// horizon, so the refusal paths are compared too.
func randomSpec(rng *rand.Rand) Spec {
	n := 1 + rng.Intn(6)
	models := make([]string, n)
	weights := make([]float64, n)
	for i := range models {
		models[i] = fmt.Sprintf("m%d", i)
		weights[i] = rng.Float64() * 10
	}
	s := Spec{
		Mix:        Weighted(models, weights),
		Sigma:      8 * rng.Float64(),
		RatePerSec: math.Pow(10, -1+6*rng.Float64()),
		Jobs:       1 + rng.Intn(3000),
		Clients:    1 + rng.Intn(8),
		Seed:       rng.Int63(),
		Tenants:    rng.Intn(3),
	}
	if rng.Intn(8) == 0 {
		switch rng.Intn(9) {
		case 0:
			s.Sigma = math.NaN()
		case 1:
			s.Sigma = -s.Sigma - 0.1
		case 2:
			s.RatePerSec = math.Inf(1)
		case 3:
			s.RatePerSec = 0
		case 4:
			s.Jobs = 0
		case 5:
			s.Clients = 0
		case 6:
			s.Mix.Weights[rng.Intn(n)] = math.NaN()
		case 7:
			s.Mix.Weights[rng.Intn(n)] = -1
		case 8:
			s.RatePerSec = math.Pow(10, -9+4*rng.Float64())
		}
	}
	return s
}

// TestGenerateMatchesOracle runs the old and new Generate on seeded random
// specs. Where the old code accepts a spec and its trace stays below the
// 4e14 ns horizon (a trace past it overflowed sim.Time), the new code must
// return the identical trace. Every other spec the new code must refuse,
// and a spec the old code accepted it must refuse with the horizon error.
func TestGenerateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20231023))
	var same, horizon, invalid int
	for i := 0; i < 1500; i++ {
		s := randomSpec(rng)
		want, werr := oracleGenerate(s)
		got, gerr := Generate(s)
		if werr == nil {
			if last := want[len(want)-1].At; last >= 0 && last < 4e14 {
				if gerr != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("spec %d %+v: traces differ (err %v)", i, s, gerr)
				}
				same++
				continue
			}
			if gerr == nil || !strings.Contains(gerr.Error(), "trace horizon exceeds") {
				t.Fatalf("spec %d %+v: past the horizon, got err %v, want the horizon error", i, s, gerr)
			}
			horizon++
			continue
		}
		if gerr == nil {
			t.Fatalf("spec %d %+v: old code refused (%v), new code accepted", i, s, werr)
		}
		invalid++
	}
	// Each branch must be exercised, or the comparison proves little.
	if same < 1000 || horizon == 0 || invalid == 0 {
		t.Fatalf("identical %d, horizon %d, invalid %d: a branch is barely exercised", same, horizon, invalid)
	}
}

// TestGenerateDeliberateRefusals pins the two specs the old Generate
// accepted and the new one refuses: σ above 8, which GenerateTraffic never
// took, and a trace past the horizon, which overflowed sim.Time.
func TestGenerateDeliberateRefusals(t *testing.T) {
	wide := spec()
	wide.Sigma = 8.5
	slow := spec()
	slow.RatePerSec = 1e-9
	for _, c := range []struct {
		s    Spec
		want string
	}{
		{wide, "workload: sigma 8.5"},
		{slow, "workload: trace horizon exceeds 400000.000s"},
	} {
		if _, err := oracleGenerate(c.s); err != nil {
			t.Fatalf("old code refused %+v: %v", c.s, err)
		}
		if _, err := Generate(c.s); err == nil || err.Error() != c.want {
			t.Errorf("Generate(%+v) = %v, want %q", c.s, err, c.want)
		}
	}
}
