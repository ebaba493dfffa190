package metrics

import "testing"

// TestTTFTTPOTFailedRecords pins the satellite-2 semantics: failed and
// non-generative records produce well-defined (never negative) derived
// metrics.
func TestTTFTTPOTFailedRecords(t *testing.T) {
	// Non-generative: no token, so TTFT and TPOT are zero.
	plain := JobRecord{Submit: 0, Admit: 10, ExecDone: 100, Delivered: 110}
	if plain.TTFT() != 0 || plain.TPOT() != 0 {
		t.Errorf("non-generative TTFT/TPOT = %v/%v, want 0/0", plain.TTFT(), plain.TPOT())
	}

	// Failed before the first token: TTFT stays zero, TPOT stays zero.
	early := JobRecord{Submit: 0, Admit: 10, ExecDone: 50, Delivered: 50, Failed: true, PromptTokens: 8}
	if early.TTFT() != 0 || early.TPOT() != 0 {
		t.Errorf("pre-token failure TTFT/TPOT = %v/%v, want 0/0", early.TTFT(), early.TPOT())
	}

	// Failed mid-decode with ExecDone stamped at failure time before
	// FirstToken would be nonsensical; the llm engine stamps ExecDone at
	// the failure instant, which is ≥ FirstToken for any record that
	// produced a token. But a corrupt record must still clamp, not go
	// negative.
	corrupt := JobRecord{
		Submit: 0, FirstToken: 100, ExecDone: 50, Delivered: 50,
		OutputTokens: 4, Failed: true,
	}
	if got := corrupt.TPOT(); got != 0 {
		t.Errorf("corrupt TPOT = %v, want clamped 0", got)
	}

	// One token only: no inter-token interval to average.
	single := JobRecord{Submit: 0, FirstToken: 40, ExecDone: 40, Delivered: 45, OutputTokens: 1}
	if got := single.TPOT(); got != 0 {
		t.Errorf("single-token TPOT = %v, want 0", got)
	}

	// A healthy generative record for contrast.
	ok := JobRecord{Submit: 0, FirstToken: 40, ExecDone: 100, Delivered: 110, OutputTokens: 4}
	if got := ok.TTFT(); got != 40 {
		t.Errorf("TTFT = %v, want 40", got)
	}
	if got := ok.TPOT(); got != 20 { // (100-40)/(4-1)
		t.Errorf("TPOT = %v, want 20", got)
	}
}

// TestCommNsFailedRecord: a failure record with ExecDone stamped at the
// failure instant keeps CommNs to the real channel crossings instead of
// swallowing the whole queue wait.
func TestCommNsFailedRecord(t *testing.T) {
	r := JobRecord{
		Submit: 0, Admit: 10, ExecDone: 500, Delivered: 510,
		Failed: true, FailureReason: "kv exhausted",
	}
	if got := r.CommNs(); got != 20 {
		t.Errorf("failed-record CommNs = %v, want 20 (10 in + 10 out)", got)
	}
	// If ExecDone had been left zero the old bug would report 520 here.
	stale := JobRecord{Submit: 0, Admit: 10, Delivered: 510, Failed: true}
	if got := stale.CommNs(); got != 520 {
		t.Errorf("sanity: unstamped ExecDone inflates CommNs to %v", got)
	}
}
