package workload

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"paella/internal/sim"
)

func spec() Spec {
	return Spec{
		Mix:        Uniform("a", "b"),
		Sigma:      1.5,
		RatePerSec: 100,
		Jobs:       5000,
		Clients:    4,
		Seed:       1,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(spec())
	b := MustGenerate(spec())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace differs at %d", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	reqs := MustGenerate(spec())
	if len(reqs) != 5000 {
		t.Fatalf("len = %d", len(reqs))
	}
	prev := sim.Time(0)
	counts := map[string]int{}
	clients := map[int]int{}
	for _, r := range reqs {
		if r.At < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = r.At
		counts[r.Model]++
		clients[r.Client]++
	}
	// Uniform mix: each model ≈ 50%.
	fa := float64(counts["a"]) / 5000
	if fa < 0.45 || fa > 0.55 {
		t.Fatalf("model a fraction = %f", fa)
	}
	if len(clients) != 4 {
		t.Fatalf("clients used = %d", len(clients))
	}
}

func TestGenerateRate(t *testing.T) {
	// The empirical rate should be within ~25% of the target for a long
	// trace (lognormal with σ=1.5 has heavy tails).
	reqs := MustGenerate(Spec{
		Mix: Uniform("a"), Sigma: 1.5, RatePerSec: 200, Jobs: 20000, Clients: 1, Seed: 7,
	})
	rate := ObservedRate(reqs)
	if rate < 150 || rate > 260 {
		t.Fatalf("observed rate = %f, want ≈200", rate)
	}
}

func TestSigmaControlsBurstiness(t *testing.T) {
	// Higher sigma ⇒ higher coefficient of variation of inter-arrivals.
	cv := func(sigma float64) float64 {
		reqs := MustGenerate(Spec{
			Mix: Uniform("a"), Sigma: sigma, RatePerSec: 100, Jobs: 30000, Clients: 1, Seed: 3,
		})
		var gaps []float64
		for i := 1; i < len(reqs); i++ {
			gaps = append(gaps, float64(reqs[i].At-reqs[i-1].At))
		}
		var mean, varsum float64
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		for _, g := range gaps {
			varsum += (g - mean) * (g - mean)
		}
		return math.Sqrt(varsum/float64(len(gaps))) / mean
	}
	if cv(2) <= cv(1.5) {
		t.Fatalf("cv(σ=2)=%f not burstier than cv(σ=1.5)=%f", cv(2), cv(1.5))
	}
}

func TestWeightedMix(t *testing.T) {
	reqs := MustGenerate(Spec{
		Mix:        Weighted([]string{"small", "big"}, []float64{9, 1}),
		Sigma:      1,
		RatePerSec: 100,
		Jobs:       10000,
		Clients:    1,
		Seed:       5,
	})
	n := 0
	for _, r := range reqs {
		if r.Model == "small" {
			n++
		}
	}
	frac := float64(n) / float64(len(reqs))
	if frac < 0.87 || frac > 0.93 {
		t.Fatalf("small fraction = %f, want ≈0.9", frac)
	}
}

func TestInverseSizeWeights(t *testing.T) {
	w := InverseSizeWeights([]sim.Time{sim.Millisecond, 4 * sim.Millisecond})
	if math.Abs(w[0]/w[1]-4) > 1e-9 {
		t.Fatalf("weights = %v, want 4:1", w)
	}
}

func TestValidate(t *testing.T) {
	bad := []Spec{
		{},
		{Mix: Uniform("a"), Sigma: -1, RatePerSec: 1, Jobs: 1, Clients: 1},
		{Mix: Uniform("a"), RatePerSec: 0, Jobs: 1, Clients: 1},
		{Mix: Uniform("a"), RatePerSec: 1, Jobs: 0, Clients: 1},
		{Mix: Uniform("a"), RatePerSec: 1, Jobs: 1, Clients: 0},
		{Mix: Weighted([]string{"a"}, []float64{-1}), RatePerSec: 1, Jobs: 1, Clients: 1},
		{Mix: Uniform("a"), Sigma: math.NaN(), RatePerSec: 1, Jobs: 1, Clients: 1},
		{Mix: Uniform("a"), Sigma: math.Inf(1), RatePerSec: 1, Jobs: 1, Clients: 1},
		{Mix: Uniform("a"), RatePerSec: math.NaN(), Jobs: 1, Clients: 1},
		{Mix: Uniform("a"), RatePerSec: math.Inf(1), Jobs: 1, Clients: 1},
		{Mix: Weighted([]string{"a", "b"}, []float64{1, math.NaN()}), RatePerSec: 1, Jobs: 1, Clients: 1},
		{Mix: Weighted([]string{"a", "b"}, []float64{1, math.Inf(1)}), RatePerSec: 1, Jobs: 1, Clients: 1},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("spec %d validated", i)
		}
	}
}

func TestObservedRateEdges(t *testing.T) {
	if ObservedRate(nil) != 0 || ObservedRate([]Request{{At: 5}}) != 0 {
		t.Fatal("degenerate traces should report zero rate")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	trace := MustGenerate(spec())[:50]
	var buf bytes.Buffer
	if err := WriteJSON(&buf, trace); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(trace) {
		t.Fatalf("len = %d, want %d", len(got), len(trace))
	}
	for i := range got {
		if got[i] != trace[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], trace[i])
		}
	}
}

func TestReadJSONRejectsMalformed(t *testing.T) {
	cases := []string{
		`not json`,
		`[{"at_ns": -5, "model": "m", "client": 0}]`,
		`[{"at_ns": 10, "model": "", "client": 0}]`,
		`[{"at_ns": 10, "model": "m", "client": -1}]`,
		`[{"at_ns": 10, "model": "m", "client": 0}, {"at_ns": 5, "model": "m", "client": 0}]`,
	}
	for i, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// zipfSpec is the many-models trace used by the residency experiments.
func zipfSpec() Spec {
	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("zoo-%02d", i)
	}
	return Spec{
		Mix:        ZipfMix(names, 1.1),
		Sigma:      1.5,
		RatePerSec: 400,
		Jobs:       4000,
		Clients:    8,
		Seed:       7,
	}
}

func TestZipfWeightsShape(t *testing.T) {
	w := ZipfWeights(4, 1)
	want := []float64{1, 0.5, 1.0 / 3, 0.25}
	for i := range w {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Fatalf("weight[%d] = %v, want %v", i, w[i], want[i])
		}
	}
	// s = 0 is uniform.
	for _, w := range ZipfWeights(5, 0) {
		if w != 1 {
			t.Fatalf("zipf(0) weight %v, want 1", w)
		}
	}
}

func TestZipfMixSkewsTraffic(t *testing.T) {
	reqs := MustGenerate(zipfSpec())
	counts := map[string]int{}
	for _, r := range reqs {
		counts[r.Model]++
	}
	// Rank 1 must dominate rank 12 by roughly 12^1.1 ≈ 15×.
	hot, mid := counts["zoo-00"], counts["zoo-11"]
	if hot < 8*mid {
		t.Fatalf("zipf skew too weak: hot %d vs mid %d", hot, mid)
	}
	// The tail still gets traffic.
	if counts["zoo-23"] == 0 {
		t.Fatal("tail model got no requests")
	}
}

// TestZipfTraceByteStable: the many-models trace generator is
// byte-identical across runs for a fixed seed — the serialized trace is
// the reproducibility contract for the vram experiments.
func TestZipfTraceByteStable(t *testing.T) {
	var bufA, bufB bytes.Buffer
	if err := WriteJSON(&bufA, MustGenerate(zipfSpec())); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&bufB, MustGenerate(zipfSpec())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("zipf trace not byte-stable across generations")
	}
	// And a different seed actually changes the trace.
	s := zipfSpec()
	s.Seed++
	var bufC bytes.Buffer
	if err := WriteJSON(&bufC, MustGenerate(s)); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bufA.Bytes(), bufC.Bytes()) {
		t.Fatal("different seed produced an identical trace")
	}
}
