package fault

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzFaultPlanJSON fuzzes ParsePlan, the decoder behind `paella-sim
// -faults plan.json`: it must never panic on arbitrary bytes, and any plan
// it accepts must re-validate, sort into a time-ordered permutation, and
// survive an encoding/json marshal→parse→marshal round trip unchanged, so
// no field a plan file sets is lost or rejected on decode.
func FuzzFaultPlanJSON(f *testing.F) {
	f.Add([]byte(`{"seed":7,"events":[{"at_ns":1000,"kind":"retire-sm","sm":3}]}`))
	f.Add([]byte(`{"seed":1,"events":[{"at_ns":0,"kind":"drop-notifs","drop":0.02,"dup":0.005},{"at_ns":5,"kind":"pcie-brownout","factor":0.5}]}`))
	f.Add([]byte(`{"seed":-1,"events":[{"at_ns":2,"kind":"fail-load","model":"resnet18","count":2}]}`))
	f.Add([]byte(`{"events":[{"at_ns":-5,"kind":"retire-sm"}]}`)) // invalid: negative time
	f.Add([]byte(`{"events":[{"kind":"nonsense"}]}`))             // invalid: unknown kind
	synth, err := json.Marshal(Synthesize(42, 0.7, 1e9, 40))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(synth)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		// Accepted plans re-validate (ParsePlan already validated, but the
		// pair must agree).
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v", err)
		}
		// Sorted is a time-ordered permutation.
		sorted := p.Sorted()
		if len(sorted) != len(p.Events) {
			t.Fatalf("Sorted changed length: %d -> %d", len(p.Events), len(sorted))
		}
		for i := 1; i < len(sorted); i++ {
			if sorted[i].At < sorted[i-1].At {
				t.Fatalf("Sorted not ordered at %d: %d after %d", i, sorted[i].At, sorted[i-1].At)
			}
		}
		// Round trip: marshal → parse → marshal is a fixed point.
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := ParsePlan(enc)
		if err != nil {
			t.Fatalf("marshal of a valid plan does not re-parse: %v\n%s", err, enc)
		}
		if enc2, _ := json.Marshal(p2); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not stable:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
