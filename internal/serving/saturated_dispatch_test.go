package serving

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"paella/internal/core"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/workload"
)

// countingPolicy counts PickFit calls on the policy it wraps.
type countingPolicy struct {
	sched.Policy
	pickFits int
}

func (p *countingPolicy) PickFit(fits func(*sched.JobEntry) bool, maxScan int) *sched.JobEntry {
	p.pickFits++
	return p.Policy.PickFit(fits, maxScan)
}

// saturatedDigest is the SHA-256 of the per-request records (WriteJSON)
// followed by the dispatcher Stats of the saturated Paella-batch run below,
// recorded before the dispatcher learned to skip PickFit on a saturated
// occupancy mirror. The skip must not change a simulated byte. (Re-hashed
// once when Stats lost its always-zero Shed field: the old records and
// stats, printed without " Shed:0", hash to this value.)
const saturatedDigest = "d9c33c521ab40e7ca710f49d50d5fd1f300f5db498bfd6114b9758a517598bbe"

// maxPickFitsPerReq gates the dispatcher's PickFit calls per request on the
// same run, about 5% above the 21.50 it makes with the saturated skip.
// Before the skip it made 149.27 calls per request.
const maxPickFitsPerReq = 22.6

// TestSaturatedDispatchExact drives Paella-batch on one T4 at about three
// times its capacity, where the dispatcher's occupancy mirror spends most
// of the run saturated. The simulated results must match the recorded
// digest exactly, and the number of PickFit calls is a hard gate: it is
// deterministic, so any rise means the saturated skip stopped firing.
func TestSaturatedDispatchExact(t *testing.T) {
	const jobs = 2000
	opts := DefaultOptions()
	opts.Models = model.SyntheticZoo(8)
	opts.ProfileRuns = 1
	names := make([]string, len(opts.Models))
	for i, m := range opts.Models {
		names[i] = m.Name
	}
	reqs := workload.MustGenerate(workload.Spec{
		Mix:   workload.ZipfMix(names, 1.1),
		Sigma: 2, RatePerSec: 8000, Jobs: jobs, Clients: 8, Seed: 20231023,
	})
	var counter *countingPolicy
	sys := NewPaellaTweaked("Paella-batch", func(cfg *core.Config) {
		cfg.MaxBatch = DefaultMaxBatch
		cfg.BatchWindow = DefaultBatchWindow
		counter = &countingPolicy{Policy: cfg.Policy}
		cfg.Policy = counter
	})
	col := MustRunTrace(sys, reqs, opts)
	if col.Len() != jobs {
		t.Fatalf("delivered %d of %d", col.Len(), jobs)
	}
	h := sha256.New()
	if err := col.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	st := sys.(*paellaSystem).Dispatcher().Stats()
	fmt.Fprintf(h, "%+v", st)
	if st.Batches == 0 {
		t.Fatal("saturating load formed no batches")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != saturatedDigest {
		t.Errorf("simulation digest %s, want %s", got, saturatedDigest)
	}
	perReq := float64(counter.pickFits) / jobs
	t.Logf("PickFit calls: %d (%.2f per request)", counter.pickFits, perReq)
	if perReq > maxPickFitsPerReq {
		t.Errorf("PickFit calls per request %.2f, gate %.2f", perReq, float64(maxPickFitsPerReq))
	}
}
