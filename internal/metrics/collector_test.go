package metrics

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
	"unsafe"

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

// blocks lists the collector's storage blocks in order.
func (c *Collector) blocks() []*block {
	var out []*block
	for b := c.head; b != nil; b = b.next {
		out = append(out, b)
	}
	return out
}

// nblocks counts the collector's storage blocks without allocating.
func (c *Collector) nblocks() int {
	n := 0
	for b := c.head; b != nil; b = b.next {
		n++
	}
	return n
}

// TestCollectorAddAllocs: once a record's strings are interned, Add
// allocates exactly once per block it opens, and a block, once written, is
// never replaced or rewritten however many blocks follow.
func TestCollectorAddAllocs(t *testing.T) {
	if unsafe.Sizeof(block{}) > blockSize {
		t.Fatalf("a block is %d bytes, more than %d", unsafe.Sizeof(block{}), blockSize)
	}
	c := NewCollector()
	r := llmRecord(1, 0, 5, 20, 8)
	r.Tenant, r.FailureReason = "t", "x"
	add := func() {
		for i := 0; i < 10000; i++ {
			r.ID++
			r.Submit += sim.Microsecond
			r.Delivered += sim.Microsecond
			c.Add(r)
		}
	}
	c.Add(r)
	written := append([]byte(nil), c.head.buf[:c.head.n]...)
	opened := 0
	if got := testing.AllocsPerRun(1, func() {
		n := c.nblocks()
		add()
		opened = c.nblocks() - n
	}); got != float64(opened) || opened == 0 {
		t.Fatalf("Add allocated %v times while opening %d blocks", got, opened)
	}
	before := c.blocks()
	add()
	if after := c.blocks(); len(after) <= len(before) || !slices.Equal(after[:len(before)], before) {
		t.Fatal("a written block was replaced")
	}
	if !bytes.Equal(c.head.buf[:len(written)], written) {
		t.Fatal("the first block's entries were rewritten")
	}
	if c.Len() != 30001 {
		t.Fatalf("Len = %d, want 30001", c.Len())
	}
}

// TestNewCollectorAllocatesNothing: blocks and the string table are
// allocated on the first Add, so building a system with idle collectors
// costs nothing.
func TestNewCollectorAllocatesNothing(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() {
		if NewCollector().Len() != 0 {
			t.Fatal("new collector is not empty")
		}
	}); got != 0 {
		t.Fatalf("NewCollector allocated %v times", got)
	}
	c := NewCollector()
	if c.head != nil || c.strs != nil || c.ids != nil || c.Records() != nil {
		t.Fatal("empty collector holds storage")
	}
}

// TestEachAllocatesNothing: a decoding pass reuses one record, so the
// aggregate methods cost no allocation per record.
func TestEachAllocatesNothing(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 5000; i++ {
		c.Add(fuzzRecord(i, byte(i)))
	}
	tokens := 0
	if got := testing.AllocsPerRun(10, func() {
		c.each(func(r JobRecord) { tokens += r.OutputTokens })
	}); got != 0 {
		t.Fatalf("each allocated %v times", got)
	}
}

// BenchmarkCollectorAdd times Add, block allocation included. A fresh
// collector every 65,536 records keeps the live heap small at any b.N.
func BenchmarkCollectorAdd(b *testing.B) {
	r := llmRecord(1, 0, 5, 20, 8)
	b.ReportAllocs()
	var c *Collector
	for i := 0; i < b.N; i++ {
		if i%(1<<16) == 0 {
			c = NewCollector()
		}
		c.Add(r)
	}
}

// BenchmarkCollectorEach times decoding, one op per record, over 65,536
// records that mix generative, batched and failed requests.
func BenchmarkCollectorEach(b *testing.B) {
	c := NewCollector()
	for i := 0; i < 1<<16; i++ {
		c.Add(fuzzRecord(i, byte(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	tokens := 0
	for i := 0; i < b.N; i += c.Len() {
		c.each(func(r JobRecord) { tokens += r.OutputTokens })
	}
	eachSink = tokens
}

// eachSink keeps BenchmarkCollectorEach's sum live.
var eachSink int

// roundTripRecords is how many records one FuzzRecordRoundTrip input
// builds: enough for more than 128 distinct strings, so string indices
// take two varint bytes.
const roundTripRecords = 300

// FuzzRecordRoundTrip fills every JobRecord field through reflect with
// values drawn from a pool seeded by the fuzzer: zero, ±1, the int64
// extremes, the fuzzer's own int64s, the record's Submit (a zero offset
// that must still be stored), the previous record's value (a zero delta)
// and fresh or repeated strings. Every record must come back exactly
// through Records and each. A field added to JobRecord without codec
// support fails here, as does one of a kind the filler does not know.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), int64(0), "")
	f.Add(uint64(1), int64(math.MinInt64), int64(math.MaxInt64), "model")
	f.Add(uint64(7777), int64(-1), int64(1)<<40, "tenant\x00é")
	f.Fuzz(func(t *testing.T, seed uint64, x, y int64, s string) {
		h := seed
		next := func() uint64 { // splitmix64
			h += 0x9e3779b97f4a7c15
			z := h
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return z ^ z>>31
		}
		c := NewCollector()
		want := make([]JobRecord, 0, roundTripRecords)
		var prev JobRecord
		fresh := 0
		for k := 0; k < roundTripRecords; k++ {
			var r JobRecord
			v, pv := reflect.ValueOf(&r).Elem(), reflect.ValueOf(prev)
			for i := 0; i < v.NumField(); i++ {
				fv, op := v.Field(i), next()
				switch fv.Kind() {
				case reflect.Bool:
					fv.SetBool(op&1 != 0)
				case reflect.String:
					switch op % 4 {
					case 0:
						fv.SetString("")
					case 1:
						fv.SetString(s)
					case 2:
						fresh++
						fv.SetString(s + strconv.Itoa(fresh))
					case 3:
						fv.SetString(pv.Field(i).String())
					}
				case reflect.Int, reflect.Int64, reflect.Uint64:
					var n int64
					switch op % 10 {
					case 1:
						n = 1
					case 2:
						n = -1
					case 3:
						n = math.MinInt64
					case 4:
						n = math.MaxInt64
					case 5:
						n = x
					case 6:
						n = y
					case 7:
						n = int64(r.Submit)
					case 8:
						n = pv.Field(i).Convert(reflect.TypeOf(n)).Int()
					case 9:
						n = int64(r.Submit) + int64(op>>32)%1000 - 500
					}
					if fv.Kind() == reflect.Uint64 {
						fv.SetUint(uint64(n))
					} else {
						fv.SetInt(n)
					}
				default:
					t.Fatalf("JobRecord.%s has kind %v, which the round trip cannot fill",
						v.Type().Field(i).Name, fv.Kind())
				}
			}
			c.Add(r)
			want = append(want, r)
			prev = r
		}
		got := c.Records()
		if len(got) != len(want) {
			t.Fatalf("Records returned %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d round-tripped as\n%+v\nwant\n%+v", i, got[i], want[i])
			}
		}
		i := 0
		c.each(func(r JobRecord) {
			if i >= len(want) || r != want[i] {
				t.Fatalf("each record %d differs", i)
			}
			i++
		})
		if i != len(want) || c.Len() != len(want) {
			t.Fatalf("each visited %d records, Len %d, want %d", i, c.Len(), len(want))
		}
	})
}

// model is the twin the fuzz target holds the encoded store to: a plain
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
// one block boundary (about 2,400 of these records fill a block) and,
// after every step, compares the encoded store with the plain-slice
// model: Len, Records, every aggregate, the filtered collectors and the
// WriteJSON bytes. A slice Records returned earlier
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
		// records.
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
		// eight steps or once it spans two blocks.
		for _, b := range ops[:min(len(ops), 8)] {
			if c.nblocks() > 1 {
				break
			}
			step(b)
		}
		for c.nblocks() <= 1 {
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
