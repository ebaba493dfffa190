package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"paella/internal/metrics"
	"paella/internal/telemetry"
	"paella/internal/vram"
)

// checkOutputs verifies a drained run and returns one message per violated
// invariant (nil when every check passes):
//   - conservation by request ID: every submitted ID ends exactly once, as
//     a completed, failed or shed record;
//   - every record's latency anatomy sums exactly to its JCT;
//   - gpu.Device and vram.Manager accounting invariants at drain;
//   - the autoscale Front's ledger is conserved with nothing outstanding.
func checkOutputs(in *inputs, sys *system, col *metrics.Collector) []string {
	var bad []string
	n := in.n()
	if got := sys.terminated(); got != n {
		bad = append(bad, fmt.Sprintf("conservation: %d of %d requests terminated", got, n))
	}
	seen := make([]uint8, n+1)
	unknown, anatomy := 0, 0
	recs := col.Records()
	for i := range recs {
		r := &recs[i]
		if r.ID == 0 || r.ID > uint64(n) {
			unknown++
		} else if seen[r.ID] < 2 {
			seen[r.ID]++
		}
		if a := telemetry.Of(r); a.Sum() != r.JCT() {
			anatomy++
		}
	}
	missing, dup := 0, 0
	for id := 1; id <= n; id++ {
		switch seen[id] {
		case 0:
			missing++
		case 2:
			dup++
		}
	}
	if unknown+missing+dup > 0 {
		bad = append(bad, fmt.Sprintf("conservation: %d unknown, %d missing, %d duplicated request IDs", unknown, missing, dup))
	}
	if anatomy > 0 {
		bad = append(bad, fmt.Sprintf("anatomy: %d records whose phases do not sum to JCT", anatomy))
	}
	for i, d := range sys.devices() {
		if err := recovered(d.CheckInvariants); err != nil {
			bad = append(bad, fmt.Sprintf("gpu %d: %v", i, err))
		}
	}
	for i, m := range sys.managers() {
		if err := recovered(m.CheckInvariants); err != nil {
			bad = append(bad, fmt.Sprintf("vram %d: %v", i, err))
		}
	}
	if f := sys.front; f != nil {
		if c := f.Counts(); !c.Conserved() || f.Outstanding() != 0 {
			bad = append(bad, fmt.Sprintf("front: ledger %+v with %d outstanding", c, f.Outstanding()))
		}
	}
	return bad
}

// recovered runs an invariant check that reports violations by panicking.
func recovered(check func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	check()
	return nil
}

// simDigest is the SHA-256 of the run's collected records as
// Collector.WriteJSON renders them: equal digests mean byte-identical
// simulated output.
func simDigest(col *metrics.Collector) (string, error) {
	h := sha256.New()
	if err := col.WriteJSON(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// managers lists every VRAM manager in the system: the dispatchers' weight
// residency managers and the LLM engines' KV pools.
func (s *system) managers() []*vram.Manager {
	var out []*vram.Manager
	for _, d := range s.disps {
		if m := d.VRAM(); m != nil {
			out = append(out, m)
		}
	}
	for _, e := range s.engines {
		out = append(out, e.Mem())
	}
	return out
}
