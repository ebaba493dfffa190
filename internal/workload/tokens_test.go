package workload

import (
	"slices"
	"testing"
)

func tokenSpec() TokenSpec { return DefaultTokenSpec(7) }

// TestTokenTraceByteStable mirrors TestZipfTraceByteStable: the sampled
// token-length sequence is the reproducibility contract for the llm
// experiments — identical across generations for a fixed seed, and
// actually different for a different seed.
func TestTokenTraceByteStable(t *testing.T) {
	gen := func(spec TokenSpec) []Tokens {
		ts, err := SampleTokens(spec, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	a, b := gen(tokenSpec()), gen(tokenSpec())
	if !slices.Equal(a, b) {
		t.Fatal("token trace not stable across generations")
	}
	s := tokenSpec()
	s.Seed++
	if slices.Equal(a, gen(s)) {
		t.Fatal("different seed produced an identical token trace")
	}
}

func TestTokenSamplerShape(t *testing.T) {
	ts, err := SampleTokens(tokenSpec(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	var psum, osum float64
	for _, tok := range ts {
		if tok.Prompt < 1 || tok.Prompt > 1024 || tok.Output < 1 || tok.Output > 256 {
			t.Fatalf("token lengths out of clamp range: %+v", tok)
		}
		psum += float64(tok.Prompt)
		osum += float64(tok.Output)
	}
	pm, om := psum/5000, osum/5000
	// Clamping shaves the tail, so the empirical means sit below the
	// configured ones but must stay in the right ballpark.
	if pm < 140 || pm > 260 {
		t.Fatalf("mean prompt length %f, want ≈200", pm)
	}
	if om < 30 || om > 65 {
		t.Fatalf("mean output length %f, want ≈48", om)
	}
}

func TestTokenSpecValidate(t *testing.T) {
	bad := []TokenSpec{
		{},
		{PromptMean: 0, OutputMean: 10},
		{PromptMean: 10, OutputMean: 0},
		{PromptMean: 10, OutputMean: 10, PromptSigma: -1},
		{PromptMean: 10, OutputMean: 10, OutputSigma: -1},
		{PromptMean: 10, OutputMean: 10, MaxOutput: -5},
	}
	for i, s := range bad {
		if _, err := NewTokenSampler(s); err == nil {
			t.Errorf("spec %d validated", i)
		}
	}
}
