package workload

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzTrafficSpecJSON fuzzes ParseTrafficSpec, the decoder behind
// `paella-sim -traffic <spec.json>`: it must never panic on arbitrary
// bytes, any spec it accepts must re-validate, and re-encoding an accepted
// spec with encoding/json must parse back to the same document, so no
// field a spec file sets is lost or rejected on decode. Accepted
// non-replay specs also generate a tiny clamped trace to exercise the
// generator on fuzz-shaped parameters without unbounded work.
func FuzzTrafficSpecJSON(f *testing.F) {
	f.Add([]byte(`{"shape":"diurnal","mix":{"Models":["a","b"],"Weights":[1,1]},"sigma":1.5,"base_rate_per_sec":4000,"amplitude":0.7,"period_ns":2000000000,"duration_ns":2000000000,"clients":1000000,"seed":1}`))
	f.Add([]byte(`{"shape":"spike","mix":{"Models":["m"],"Weights":[1]},"sigma":2,"base_rate_per_sec":1500,"spike_factor":5,"spike_at_ns":1000000000,"spike_duration_ns":500000000,"jobs":100,"clients":250,"seed":7,"tenants":4}`))
	f.Add([]byte(`{"shape":"constant","mix":{"Models":["m"],"Weights":[1]},"sigma":0,"base_rate_per_sec":100,"jobs":10,"clients":1,"seed":0}`))
	f.Add([]byte(`{"shape":"replay","replay_path":"trace.ndjson"}`))
	f.Add([]byte(`{"shape":"diurnal","amplitude":0.99}`)) // invalid: amplitude + missing fields
	f.Add([]byte(`{"shape":"lunar"}`))                    // invalid: unknown shape
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseTrafficSpec(data)
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v", err)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := ParseTrafficSpec(enc)
		if err != nil {
			t.Fatalf("marshal of a valid spec does not re-parse: %v\n%s", err, enc)
		}
		if enc2, _ := json.Marshal(s2); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not stable:\n%s\nvs\n%s", enc, enc2)
		}
		if s.Shape == ShapeReplay {
			return
		}
		// Generate a bounded sample of the accepted envelope: cap the work
		// so fuzz-shaped rates/durations cannot explode.
		s.Jobs = 64
		s.Duration = 0
		if s.BaseRatePerSec < 1 {
			s.BaseRatePerSec = 1
		}
		if s.BaseRatePerSec > 1e6 {
			s.BaseRatePerSec = 1e6
		}
		reqs, err := GenerateTraffic(s)
		if err != nil {
			return // clamping may have invalidated a Duration-only spec
		}
		prev := reqs[0].At
		for i, r := range reqs {
			if r.At < prev {
				t.Fatalf("arrivals not monotone at %d", i)
			}
			prev = r.At
			if r.Model == "" || r.Client < 0 || r.Client >= s.Clients {
				t.Fatalf("malformed request %d: %+v", i, r)
			}
		}
	})
}

// FuzzReadTrace fuzzes ReadTrace, the reader behind `paella-sim -trace`
// and `-traffic replay:`: it must never panic on arbitrary bytes, every
// trace it accepts must be non-empty and monotone with named models and
// non-negative clients, and WriteJSON followed by ReadTrace must give an
// accepted trace back exactly.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte(`[{"at_ns":0,"model":"a","client":0},{"at_ns":5,"model":"b","client":3,"tenant":"tenant-1"}]`))
	f.Add([]byte("{\"at_ns\":1,\"model\":\"a\",\"client\":1}\n\n{\"at_ns\":1,\"model\":\"a\",\"client\":0}\n"))
	f.Add([]byte(""))
	f.Add([]byte("{\"at_ns\":9,\"model\":\"m\"}\n{\"at_ns\":3,\"model\":\"m\"}\n")) // non-monotone
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(reqs) == 0 {
			t.Fatal("accepted an empty trace")
		}
		for i, r := range reqs {
			if r.At < 0 || i > 0 && r.At < reqs[i-1].At {
				t.Fatalf("accepted arrivals not monotone at %d", i)
			}
			if r.Model == "" || r.Client < 0 {
				t.Fatalf("accepted malformed request %d: %+v", i, r)
			}
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, reqs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("written trace does not read back: %v", err)
		}
		if !reflect.DeepEqual(back, reqs) {
			t.Fatal("trace changed through WriteJSON and ReadTrace")
		}
	})
}
