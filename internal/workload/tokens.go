package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Tokens is the generative shape of one LLM request: the prompt length the
// prefill pass consumes and the output length the decode loop produces.
// Unlike the fixed kernel graphs of the Table 2 zoo, an LLM job's length is
// not known to the client — the output count is the serving system's ground
// truth (the simulator's stand-in for the EOS token) and drives both the
// per-iteration decode loop and the KV-cache footprint (internal/llm).
type Tokens struct {
	Prompt int
	Output int
}

// TokenSpec parameterizes the token-length sampler. Both lengths follow
// lognormal distributions (the shape reported for production LLM traces:
// many short requests, a heavy tail of long ones), clamped to [1, Max*].
type TokenSpec struct {
	// PromptMean and PromptSigma shape the prompt-length lognormal.
	PromptMean  float64
	PromptSigma float64
	// OutputMean and OutputSigma shape the output-length lognormal.
	OutputMean  float64
	OutputSigma float64
	// MaxPrompt and MaxOutput clamp the tails (0 = use defaults).
	MaxPrompt int
	MaxOutput int
	// Seed makes the sample sequence reproducible.
	Seed int64
}

// DefaultTokenSpec returns the stock LLM workload shape: ~200-token
// prompts, ~48-token outputs, mild length skew.
func DefaultTokenSpec(seed int64) TokenSpec {
	return TokenSpec{
		PromptMean: 200, PromptSigma: 0.5,
		OutputMean: 48, OutputSigma: 0.6,
		MaxPrompt: 1024, MaxOutput: 256,
		Seed: seed,
	}
}

// Validate reports parameter errors.
func (s TokenSpec) Validate() error {
	switch {
	case s.PromptMean < 1:
		return fmt.Errorf("workload: prompt mean %f", s.PromptMean)
	case s.OutputMean < 1:
		return fmt.Errorf("workload: output mean %f", s.OutputMean)
	case s.PromptSigma < 0 || s.OutputSigma < 0:
		return fmt.Errorf("workload: negative token sigma")
	case s.MaxPrompt < 0 || s.MaxOutput < 0:
		return fmt.Errorf("workload: negative token clamp")
	}
	return nil
}

// TokenSampler draws per-request token lengths from the seeded lognormal
// model. Draw order is the reproducibility contract: the i-th Next call
// always returns the same lengths for a fixed spec, independent of
// everything else in the run.
type TokenSampler struct {
	spec TokenSpec
	rng  *rand.Rand
}

// NewTokenSampler builds the lognormal sampler.
func NewTokenSampler(spec TokenSpec) (*TokenSampler, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.MaxPrompt == 0 {
		spec.MaxPrompt = 1024
	}
	if spec.MaxOutput == 0 {
		spec.MaxOutput = 256
	}
	return &TokenSampler{spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}, nil
}

// Next returns the next request's token lengths. The lognormal draw uses
// µ = ln(mean) − σ²/2 so the distribution's mean matches the spec, rounded
// and clamped to [1, Max].
func (s *TokenSampler) Next() Tokens {
	// Prompt then output, one normal draw each: the fixed draw order is
	// what makes the sequence byte-stable.
	prompt := s.draw(s.spec.PromptMean, s.spec.PromptSigma, s.spec.MaxPrompt)
	output := s.draw(s.spec.OutputMean, s.spec.OutputSigma, s.spec.MaxOutput)
	return Tokens{Prompt: prompt, Output: output}
}

func (s *TokenSampler) draw(mean, sigma float64, max int) int {
	mu := math.Log(mean) - sigma*sigma/2
	n := int(math.Round(math.Exp(mu + sigma*s.rng.NormFloat64())))
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return n
}

// SampleTokens draws n request lengths from a fresh sampler — the
// deterministic pre-generated form the benchmark's LLM workload replays.
func SampleTokens(spec TokenSpec, n int) ([]Tokens, error) {
	s, err := NewTokenSampler(spec)
	if err != nil {
		return nil, err
	}
	out := make([]Tokens, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out, nil
}
