package metrics

import (
	"bytes"
	"encoding/json"
	"maps"
	"slices"
	"sort"
	"testing"

	"paella/internal/sim"
)

// TestGoodputSkipsFailedAndCancelled: a shed record is stamped terminal at
// once, so its JCT is about zero and always "meets" the deadline. Goodput
// must not count it, nor a cancelled record, though both stamps still
// bound the span.
func TestGoodputSkipsFailedAndCancelled(t *testing.T) {
	for _, tc := range []struct {
		name string
		mark func(*JobRecord)
	}{
		{"shed", func(r *JobRecord) { r.Failed, r.FailureReason = true, "gateway: tenant over its admission rate" }},
		{"cancelled", func(r *JobRecord) { r.Cancelled = true }},
	} {
		c := NewCollector()
		c.Add(rec(0, 10*sim.Millisecond)) // on time
		bad := rec(sim.Second, sim.Second)
		tc.mark(&bad)
		c.Add(bad)
		// The span is [0, 1 s]: one request met the deadline in one second.
		if got := c.Goodput(50 * sim.Millisecond); got != 1 {
			t.Errorf("%s: Goodput = %v req/s, want 1", tc.name, got)
		}
		if got := c.Throughput(); got != 2 {
			t.Errorf("%s: Throughput = %v req/s, want 2 (every record)", tc.name, got)
		}
	}
}

// TestCollectorAddAllocs: Add allocates exactly once per new chunk, and a
// chunk, once linked, is never copied — the records already written stay
// at their addresses however many chunks follow.
func TestCollectorAddAllocs(t *testing.T) {
	c := NewCollector()
	r := rec(1, 2)
	if got := testing.AllocsPerRun(8, func() {
		for i := 0; i < chunkSize; i++ {
			c.Add(r)
		}
	}); got != 1 {
		t.Fatalf("Add allocated %v times per %d records, want 1 (one chunk)", got, chunkSize)
	}
	first := &c.head.recs[0]
	var chunks []*chunk
	for ch := c.head; ch != nil; ch = ch.next {
		chunks = append(chunks, ch)
	}
	for i := 0; i < 3*chunkSize+1; i++ {
		c.Add(r)
	}
	if &c.head.recs[0] != first {
		t.Fatal("the first record moved")
	}
	ch := c.head
	for i, want := range chunks {
		if ch != want {
			t.Fatalf("chunk %d replaced", i)
		}
		ch = ch.next
	}
	if c.Len() != 12*chunkSize+1 {
		t.Fatalf("Len = %d, want %d", c.Len(), 12*chunkSize+1)
	}
}

// TestNewCollectorAllocatesNoChunk: chunks are allocated on the first Add,
// so building a system with idle collectors costs nothing.
func TestNewCollectorAllocatesNoChunk(t *testing.T) {
	c := NewCollector()
	if c.head != nil || c.Records() != nil || c.Len() != 0 {
		t.Fatal("empty collector holds storage")
	}
}

// BenchmarkCollectorAdd times Add, chunk allocation included. A fresh
// collector every 64 chunks keeps the live heap near 16 MiB at any b.N.
func BenchmarkCollectorAdd(b *testing.B) {
	r := llmRecord(1, 0, 5, 20, 8)
	b.ReportAllocs()
	var c *Collector
	for i := 0; i < b.N; i++ {
		if i%(64*chunkSize) == 0 {
			c = NewCollector()
		}
		c.Add(r)
	}
}

// model is the twin the fuzz target holds the chunked store to: a plain
// slice whose aggregates are computed the direct way.
type model []JobRecord

func (m model) spanRate(n int) float64 {
	if len(m) == 0 {
		return 0
	}
	first, last := m[0].Submit, m[0].Delivered
	for _, r := range m {
		if r.Submit < first {
			first = r.Submit
		}
		if r.Delivered > last {
			last = r.Delivered
		}
	}
	span := (last - first).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(n) / span
}

func (m model) where(keep func(JobRecord) bool) model {
	var out model
	for _, r := range m {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

func (m model) times(of func(*JobRecord) sim.Time, all bool) []sim.Time {
	var out []sim.Time
	for i := range m {
		if t := of(&m[i]); all || t > 0 {
			out = append(out, t)
		}
	}
	return out
}

// jsonTwin is the model's WriteJSON bytes, assembled from each record's
// own indented encoding so that a check encodes only the store.
type jsonTwin [][]byte

func (j *jsonTwin) add(t *testing.T, r *JobRecord) {
	b, err := json.MarshalIndent(r.jsonRec(), "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	*j = append(*j, b)
}

func (j jsonTwin) bytes() []byte {
	if len(j) == 0 {
		return []byte("[]\n")
	}
	out := append([]byte("[\n  "), bytes.Join(j, []byte(",\n  "))...)
	return append(out, "\n]\n"...)
}

// fuzzRecord derives record i's fields from i and the fuzz byte b, mixing
// models, tenants, failures, cancellations, cold starts, batches and
// generative fields so every aggregate sees both sides of its filters.
func fuzzRecord(i int, b byte) JobRecord {
	h := uint64(i)*0x9e3779b97f4a7c15 ^ uint64(b)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	submit := sim.Time(i)*sim.Millisecond + sim.Time(h%997)*sim.Microsecond
	r := JobRecord{
		ID: uint64(i + 1), Model: []string{"a", "b", "c"}[h%3],
		Tenant: []string{"", "t1", "t2", "t3"}[(h>>8)%4],
		Client: int(h>>16) % 5, Submit: submit,
		Admit: submit + sim.Time(h%50), FirstDispatch: submit + 100,
		ExecDone: submit + sim.Time(h%90000), Delivered: submit + sim.Time(h%90000) + 7,
		SchedNs: sim.Time(h % 31), FrameworkNs: sim.Time(h % 17),
		ColdStart: h%5 == 0, LoadNs: sim.Time(h % 13),
		BatchSize: int(h>>20) % 4, HoLNs: sim.Time(h % 7),
		Preemptions: int(h>>24) % 3,
		Cancelled:   (h>>32)%13 == 0,
	}
	if (h>>36)%11 == 0 {
		r.Failed, r.FailureReason = true, []string{"x", "y"}[(h>>40)%2]
	}
	if h%2 == 0 {
		r.PromptTokens, r.OutputTokens = int(h>>44)%300+1, int(h>>48)%40
		r.FirstToken = submit + sim.Time(h%20000) + 1
	}
	return r
}

// FuzzCollector runs random Add/Records sequences that cross at least
// three chunk boundaries and, after every step, compares the chunked store
// with the plain-slice model: Len, Records, every aggregate, the filtered
// collectors and the WriteJSON bytes. A slice Records returned earlier
// must keep its contents after later Adds.
func FuzzCollector(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 200, 0, 255, 8, 1, 0})
	f.Add([]byte{249, 0, 249, 0, 249, 0, 249, 0})
	f.Add([]byte{3, 0, 0, 8, 100, 16, 250, 0, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c, m, js := NewCollector(), model(nil), jsonTwin(nil)
		type snapshot struct{ got, want []JobRecord }
		var snaps []snapshot
		add := func(n int, b byte) {
			for k := 0; k < n; k++ {
				r := fuzzRecord(len(m), b)
				c.Add(r)
				m = append(m, r)
				js.add(t, &r)
			}
		}
		// A byte ≡ 0 mod 8 calls Records; any other adds 1 to 1,030
		// records, so an exact chunk boundary (b = 249 adds 1,024) is
		// one byte away.
		step := func(b byte) {
			if b%8 == 0 {
				got := c.Records()
				snaps = append(snaps, snapshot{got, slices.Clone(got)})
			} else {
				add(int(b>>3)*33+int(b&7), b)
			}
			checkTwin(t, c, m, js.bytes())
			for i, s := range snaps {
				if !slices.Equal(s.got, s.want) {
					t.Fatalf("Records slice %d changed after later Adds", i)
				}
			}
		}
		// Every check walks the whole store, so the sequence stops after
		// eight steps or once it spans four chunks.
		for _, b := range ops[:min(len(ops), 8)] {
			if len(m) > 3*chunkSize {
				break
			}
			step(b)
		}
		for len(m) <= 3*chunkSize {
			step(255) // 1,030 records
		}
	})
}

func checkTwin(t *testing.T, c *Collector, m model, wantJSON []byte) {
	t.Helper()
	if c.Len() != len(m) {
		t.Fatalf("Len = %d, model %d", c.Len(), len(m))
	}
	if got := c.Records(); !slices.Equal(got, m) || (len(m) == 0) != (got == nil) {
		t.Fatalf("Records differ from the model (%d vs %d records)", len(got), len(m))
	}
	ok := m.where(func(r JobRecord) bool { return !r.Failed && !r.Cancelled })
	if !slices.Equal(c.Succeeded().Records(), ok) {
		t.Fatal("Succeeded differs")
	}
	for _, name := range []string{"a", "zz"} {
		if !slices.Equal(c.FilterModel(name).Records(), m.where(func(r JobRecord) bool { return r.Model == name })) {
			t.Fatalf("FilterModel(%q) differs", name)
		}
	}
	tenants := map[string]bool{}
	for _, tn := range []string{"", "t1"} {
		if !slices.Equal(c.FilterTenant(tn).Records(), m.where(func(r JobRecord) bool { return r.Tenant == tn })) {
			t.Fatalf("FilterTenant(%q) differs", tn)
		}
	}
	var wantTenants []string
	cold, fails, preempt, tokens, batchTotal, batched := 0, 0, 0, 0, 0, 0
	var load sim.Time
	reasons := map[string]int{}
	for i := range m {
		r := &m[i]
		if r.Tenant != "" && !tenants[r.Tenant] {
			tenants[r.Tenant] = true
			wantTenants = append(wantTenants, r.Tenant)
		}
		if r.ColdStart {
			cold++
		}
		if r.Failed {
			fails++
			reasons[r.FailureReason]++
		}
		if r.BatchSize > 0 {
			batchTotal += r.BatchSize
			batched++
		}
		preempt += r.Preemptions
		tokens += r.OutputTokens
		load += r.LoadNs
	}
	sort.Strings(wantTenants)
	if got := c.Tenants(); !slices.Equal(got, wantTenants) {
		t.Fatalf("Tenants = %v, model %v", got, wantTenants)
	}
	if c.ColdStarts() != cold || c.Failures() != fails || c.Preemptions() != preempt {
		t.Fatal("counts differ")
	}
	if !maps.Equal(c.FailuresByReason(), reasons) {
		t.Fatal("FailuresByReason differs")
	}
	jcts := m.times((*JobRecord).JCT, true)
	if !slices.Equal(c.JCTs(), jcts) {
		t.Fatal("JCTs differ")
	}
	if !slices.Equal(c.TTFTs(), m.times((*JobRecord).TTFT, false)) ||
		!slices.Equal(c.TPOTs(), m.times((*JobRecord).TPOT, false)) {
		t.Fatal("TTFTs or TPOTs differ")
	}
	deadline := 40 * sim.Millisecond
	met := len(ok.where(func(r JobRecord) bool { return r.JCT() <= deadline }))
	ttftMet := len(m.where(func(r JobRecord) bool {
		tt := r.TTFT()
		return tt > 0 && tt <= 10*sim.Millisecond && !r.Failed
	}))
	var warm, meanBatch float64
	var meanLoad sim.Time
	if len(m) > 0 {
		warm = 1 - float64(cold)/float64(len(m))
		meanLoad = load / sim.Time(len(m))
	}
	if batched > 0 {
		meanBatch = float64(batchTotal) / float64(batched)
	}
	floats := []struct {
		name      string
		got, want float64
	}{
		{"Throughput", c.Throughput(), m.spanRate(len(m))},
		{"Goodput", c.Goodput(deadline), m.spanRate(met)},
		{"TTFTGoodput", c.TTFTGoodput(10 * sim.Millisecond), m.spanRate(ttftMet)},
		{"TokensPerSec", c.TokensPerSec(), m.spanRate(tokens)},
		{"WarmHitRatio", c.WarmHitRatio(), warm},
		{"MeanBatchSize", c.MeanBatchSize(), meanBatch},
	}
	for _, fl := range floats {
		if fl.got != fl.want {
			t.Fatalf("%s = %v, model %v", fl.name, fl.got, fl.want)
		}
	}
	if c.MeanLoadNs() != meanLoad {
		t.Fatal("MeanLoadNs differs")
	}
	if c.P50() != Percentile(jcts, 50) || c.P99() != Percentile(jcts, 99) || c.MeanJCT() != Mean(jcts) {
		t.Fatal("JCT percentiles differ")
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantJSON) {
		t.Fatal("WriteJSON bytes differ")
	}
}
