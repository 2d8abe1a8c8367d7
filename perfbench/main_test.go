package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks every size so a whole workload runs in seconds.
func tinyConfig(t *testing.T) Config {
	cfg := DefaultConfig()
	cfg.CodecN = 2 * 102400
	cfg.ServedN = 32768
	cfg.IngestN = 4096
	cfg.Setups = 2
	cfg.RateQPS = 100
	cfg.MinBeyond = 0 // a tiny window has too few samples for a founded p99
	cfg.Replays = 20
	cfg.SpanDir = t.TempDir()
	return cfg
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at tiny scale and parses the result line.
func runTiny(t *testing.T, cfg Config, workload string, trace int) (resultLine, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "1.2", "--trace", string(rune('0' + trace))}
	code := run(args, cfg, time.Now(), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s trace %d: last line is not the result (%v)\nstdout:\n%s\nstderr:\n%s", workload, trace, err, out.String(), errb.String())
	}
	return r, out.String(), code
}

// TestTinyRuns runs every workload untraced and traced at tiny scale:
// each must pass its own oracle and print every metric with its unit.
func TestTinyRuns(t *testing.T) {
	cfg := tinyConfig(t)
	for _, w := range []string{"codec-large", "serve-mix", "cluster-mix"} {
		for trace, specs := range [][]MetricSpec{endToEnd, perLayer} {
			r, out, code := runTiny(t, cfg, w, trace)
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace %d: exit %d correct %v failed %d attempted %d\n%s", w, trace, code, r.Correct, r.Failed, r.Attempted, out)
			}
			if len(r.Metrics) != len(specs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w, trace, len(r.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := r.Metrics[s.Name]
				if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w, trace, s.Name, m, s.Unit)
				}
			}
			if trace == 1 {
				path := filepath.Join(cfg.SpanDir, w+"-seed7.jsonl")
				if b, err := os.ReadFile(path); err != nil || len(b) == 0 {
					t.Errorf("%s: no span file %s (%v)", w, path, err)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: every
// workload it names is in the program (which also has the ungated
// serve-mix), and the same metric names and units, in order.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []MetricSpec `json:"end_to_end"`
		PerLayer  []MetricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d besides serve-mix", len(doc.Workloads), len(workloads)-1)
	}
	for _, w := range doc.Workloads {
		if w.Name == "serve-mix" {
			t.Errorf("serve-mix is the ungated control; README.md says why it is not in BENCHMARK.json")
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	same := func(what string, got, want []MetricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestCorruptOracleCaught corrupts one oracle answer per request kind
// and checks the mismatch is counted as a failure, and that a failed
// run exits non-zero with correct=false.
func TestCorruptOracleCaught(t *testing.T) {
	cfg := tinyConfig(t)
	rng := rand.New(rand.NewSource(3))
	env, err := setupServed(cfg, false, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	var qs []query
	for len(qs) < 3 {
		q := env.mix.next()
		if q.kind == len(qs) { // one agg, one count, one scan
			qs = append(qs, q)
		}
	}
	lr := env.drive(nil, qs, make([]time.Duration, len(qs)), 0)
	o := newOracle(env.cols, false)
	rep := newReport()
	env.check(rep, o, lr.results, map[int]*result{})
	if rep.Failed != 0 {
		t.Fatalf("clean answers failed: %v", rep.Failures)
	}
	for i, q := range qs {
		key := query{col: q.col, lo: q.lo, hi: q.hi}
		switch i {
		case qAgg:
			a := o.aggs[key]
			a.Sum = math.Nextafter(a.Sum, math.Inf(1))
			o.aggs[key] = a
		case qCount:
			o.counts[key]++
		case qScan:
			s := o.scans[key]
			s[1] ^= 1
			o.scans[key] = s
		}
	}
	rep = newReport()
	env.check(rep, o, lr.results, map[int]*result{})
	if rep.Failed != 3 || rep.Attempted != 3 {
		t.Fatalf("corrupted oracle: %d of %d failed, want 3 of 3: %v", rep.Failed, rep.Attempted, rep.Failures)
	}

	cols, err := setupCodec(4096)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := codecWindow(cols, rng, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cols[0].valDigest ^= 1
	rep = newReport()
	checkCodec(rep, cols, ops)
	if rep.Failed != 1 {
		t.Fatalf("corrupted decode oracle: %d failures, want 1", rep.Failed)
	}

	var out bytes.Buffer
	if err := printReport(&out, Config{Workload: "codec-large"}, withAllMetrics(rep)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `{"correct":false,`) {
		t.Fatalf("failed run printed:\n%s", out.String())
	}
}

func withAllMetrics(rep *Report) *Report {
	for _, s := range endToEnd {
		rep.set(s.Name, 1, "")
	}
	return rep
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
// overlapping children count once and a child's part outside its
// parent is ignored.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Parent: 3, Name: "e", Start: 40, End: 45},
		{ID: 7, Name: "other", Start: 5, End: 6},
	}
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10 - 5, 4: 30, 5: 10, 6: 5, 7: 1}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %d, want %d", id, got[id], w)
		}
	}
	by := SelfTimeByName(spans)
	if s := by["root"]; s.N != 1 || s.P50 != 0.05 {
		t.Errorf("root self time summary %+v, want 0.05 us", s)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := WriteSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != len(spans) || !strings.Contains(lines[0], `"self_ns":50`) {
		t.Fatalf("span file:\n%s", b)
	}
}

func TestSummarize(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(1000 - i)
	}
	s := Summarize(v)
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || s.Beyond != 10 {
		t.Fatalf("Summarize(1..1000) = %+v", s)
	}
}

// TestIngestSlots checks that ingests take the rotating names in
// schedule order, so the ingests in flight together use different ones.
func TestIngestSlots(t *testing.T) {
	cols := []*servedCol{{values: make([]float64, 64)}}
	cols[0].qt = sampleQuantiles(cols[0].values, rand.New(rand.NewSource(1)))
	qs, _ := schedule(newMixer(rand.New(rand.NewSource(2)), cols, 16), 2000, time.Second)
	n := 0
	for _, q := range qs {
		if q.kind != qIngest {
			continue
		}
		if q.slot != n%ingestSlots {
			t.Fatalf("ingest %d has slot %d, want %d", n, q.slot, n%ingestSlots)
		}
		n++
	}
	if n <= ingestSlots {
		t.Fatalf("only %d ingests scheduled; want more than %d to see the rotation", n, ingestSlots)
	}
}

// TestMixerDecks checks that the mixer holds the mix exactly in every
// 20 requests and cycles each kind through every column.
func TestMixerDecks(t *testing.T) {
	cols := make([]*servedCol, 8)
	for i := range cols {
		cols[i] = &servedCol{values: make([]float64, 64)}
		cols[i].qt = sampleQuantiles(cols[i].values, rand.New(rand.NewSource(1)))
	}
	m := newMixer(rand.New(rand.NewSource(2)), cols, 16)
	var kinds [4]int
	var scanCols [8]int
	for i := 1; i <= 20*128; i++ {
		q := m.next()
		kinds[q.kind]++
		if q.kind == qScan {
			scanCols[q.col]++
		}
		if i%20 == 0 && kinds != [4]int{12 * i / 20, 3 * i / 20, 4 * i / 20, i / 20} {
			t.Fatalf("after %d requests: %v agg/count/scan/ingest", i, kinds)
		}
	}
	// 512 scans are eight full decks of 8 columns x 8 strata.
	if scanCols != [8]int{64, 64, 64, 64, 64, 64, 64, 64} {
		t.Fatalf("scans per column %v, want 64 each", scanCols)
	}
}

// TestThinP99Invalid checks that a fixed-rate window with fewer than
// MinBeyond samples beyond a p99 is reported as too thin.
func TestThinP99Invalid(t *testing.T) {
	env := &servedEnv{cfg: DefaultConfig(), cols: []*servedCol{{values: make([]float64, 8)}}}
	qs := []query{{kind: qAgg}, {kind: qScan}, {kind: qIngest}}
	lr := func(n int) []result {
		var rs []result
		for i := 0; i < n; i++ {
			for k := range qs {
				rs = append(rs, result{q: &qs[k], end: time.Duration(i+1) * time.Millisecond})
			}
		}
		return rs
	}
	if why := servedEndToEnd(newReport(), env, lr(200)); why == "" {
		t.Error("200 samples per kind (2 beyond the p99) passed as founded")
	}
	if why := servedEndToEnd(newReport(), env, lr(1000)); why != "" {
		t.Errorf("1000 samples per kind (10 beyond the p99): %s", why)
	}
}

// TestQuiet checks that a request is dropped only when the steal
// counter rose within stealNear of its due time, however long the
// request took, and that a group left with fewer than need is topped
// up with the requests farthest from a rise.
func TestQuiet(t *testing.T) {
	start := time.Now()
	agg, scan := query{kind: qAgg}, query{kind: qScan}
	ms := time.Millisecond
	lr := loadResult{start: start}
	for _, d := range []time.Duration{0, 50 * ms, 110 * ms, 150 * ms} {
		lr.results = append(lr.results, result{q: &agg, due: d, end: d + 500*ms})
	}
	for _, d := range []time.Duration{10 * ms, 30 * ms, 45 * ms} {
		lr.results = append(lr.results, result{q: &scan, due: d, end: d + 500*ms})
	}
	sort.Slice(lr.results, func(i, j int) bool { return lr.results[i].due < lr.results[j].due })
	dues := func(rs []result) []time.Duration {
		var v []time.Duration
		for _, r := range rs {
			v = append(v, r.due)
		}
		return v
	}
	// The rise at 60 ms is 60, 10, 50 and 90 ms from the aggs' due
	// times and 50, 30 and 15 ms from the scans': need 1 keeps the
	// quiet ones, need 2 adds the scan farthest from the rise.
	rises := []time.Time{start.Add(60 * ms)}
	for _, c := range []struct {
		need int
		want []time.Duration
	}{
		{1, []time.Duration{0, 10 * ms, 110 * ms, 150 * ms}},
		{2, []time.Duration{0, 10 * ms, 30 * ms, 110 * ms, 150 * ms}},
		{4, []time.Duration{0, 10 * ms, 30 * ms, 45 * ms, 50 * ms, 110 * ms, 150 * ms}},
	} {
		if got := dues(quiet(lr, rises, [3]int{c.need, c.need, c.need})); !slices.Equal(got, c.want) {
			t.Errorf("need %d: kept requests due at %v, want %v", c.need, got, c.want)
		}
	}
	if got := quiet(lr, nil, [3]int{1, 1, 1}); len(got) != len(lr.results) {
		t.Fatalf("no steal: kept %d of %d", len(got), len(lr.results))
	}
}
