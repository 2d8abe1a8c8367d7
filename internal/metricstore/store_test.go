package metricstore

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/goalp/alp/internal/obs"
)

// ---- deterministic synthetic telemetry ----

// snapGen produces a deterministic stream of cumulative obs snapshots:
// every counter random-walks upward and the histograms
// grow coherently (Count tracks the bucket total, SumNs and MaxNs stay
// consistent with the buckets touched). Reset() simulates a collector
// restart mid-stream.
type snapGen struct {
	rng *rand.Rand
	cum obs.Snapshot
}

func newSnapGen(seed int64) *snapGen {
	return &snapGen{rng: rand.New(rand.NewSource(seed))}
}

func (g *snapGen) Reset() { g.cum = obs.Snapshot{} }

// Next advances the cumulative state and returns a copy.
func (g *snapGen) Next() obs.Snapshot {
	for i := range g.cum.Counts {
		g.cum.Counts[i] += g.rng.Int63n(1000)
	}
	for h := range g.cum.Hists {
		hs := &g.cum.Hists[h]
		for n := g.rng.Intn(4); n > 0; n-- {
			ns := g.rng.Int63n(1 << uint(g.rng.Intn(30)))
			hs.Count++
			hs.SumNs += ns
			if ns > hs.MaxNs {
				hs.MaxNs = ns
			}
			b := 0
			for bb := 1; bb < obs.HistBuckets; bb++ {
				if ns >= int64(1)<<uint(bb) {
					b = bb
				}
			}
			hs.Buckets[b]++
		}
	}
	return g.cum
}

// scrapeSeq is a pre-generated scrape stream both recorders replay.
type scrapeSeq struct {
	ts    []int64 // unix micros, strictly increasing
	snaps []obs.Snapshot
}

// genSeq builds n scrapes spaced ~intervalUs apart with jitter, with a
// collector reset injected at resetAt (-1 for none).
func genSeq(seed int64, n int, intervalUs int64, resetAt int) scrapeSeq {
	g := newSnapGen(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5ee7))
	var seq scrapeSeq
	ts := int64(1_754_600_000_000_000) // 2025-08-08 ballpark, unix micros
	for i := 0; i < n; i++ {
		if i == resetAt {
			g.Reset()
		}
		ts += intervalUs + rng.Int63n(intervalUs/4+1)
		seq.ts = append(seq.ts, ts)
		seq.snaps = append(seq.snaps, g.Next())
	}
	return seq
}

// feed replays the sequence into a Store (via its injected Source/Now
// hooks) and a Ref in lockstep.
func feed(t *testing.T, seq scrapeSeq, opts Options) (*Store, *Ref) {
	t.Helper()
	i := 0
	opts.Source = func() obs.Snapshot { return seq.snaps[i] }
	opts.Now = func() time.Time { return time.UnixMicro(seq.ts[i]) }
	st := New(opts)
	ref := NewRef(opts)
	for i = 0; i < len(seq.ts); i++ {
		st.ScrapeOnce()
		ref.Scrape(float64(seq.ts[i]), seq.snaps[i])
	}
	return st, ref
}

// diffPoints asserts bit-identical results (Float64bits, not epsilon).
func diffPoints(t *testing.T, label string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].TsUs != want[i].TsUs || got[i].Count != want[i].Count {
			t.Fatalf("%s: point %d = {ts:%d n:%d}, reference {ts:%d n:%d}",
				label, i, got[i].TsUs, got[i].Count, want[i].TsUs, want[i].Count)
		}
		if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Fatalf("%s: point %d value %v (bits %016x), reference %v (bits %016x)",
				label, i, got[i].Value, math.Float64bits(got[i].Value),
				want[i].Value, math.Float64bits(want[i].Value))
		}
	}
}

var allAggs = []AggKind{AggSum, AggCount, AggMin, AggMax, AggAvg, AggRate, AggLast}

// TestQueryDifferential is the battery: scrape-interval x window-size
// x step x agg, compressed store vs uncompressed reference, bitwise.
func TestQueryDifferential(t *testing.T) {
	metrics := []string{
		"server_requests", "vectors_decoded", "lat_scan_count",
		"lat_scan_sum_ns", "lat_agg_p95_ns", "stage_filter_max_ns",
	}
	configs := []struct {
		name       string
		intervalUs int64
		window     int
		scrapes    int
		buckets    bool
	}{
		{"10ms-w64", 10_000, 64, 400, false},
		{"1s-w256", 1_000_000, 256, 700, false},
		{"100ms-w8-buckets", 100_000, 8, 120, true},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			seq := genSeq(42, cfg.scrapes, cfg.intervalUs, -1)
			st, ref := feed(t, seq, Options{WindowSamples: cfg.window, HistogramBuckets: cfg.buckets})

			first, last := seq.ts[0], seq.ts[len(seq.ts)-1]
			span := last - first
			ranges := []struct {
				name         string
				since, until int64
				step         time.Duration
			}{
				// One bucket per window: exercises the AggRange pushdown
				// fast path on every fully-covered sealed window.
				{"whole-one-bucket", first, last + 1, 0},
				{"fine-steps", first, last + 1, time.Duration(cfg.intervalUs*3) * time.Microsecond},
				{"coarse-steps", first, last + 1, time.Duration(span/7+1) * time.Microsecond},
				// Unaligned interior range: exercises partial-window
				// vector decode on both edges.
				{"interior", first + span/5 + 13, last - span/6 - 7, time.Duration(span/11+1) * time.Microsecond},
				{"tail-only", last - cfg.intervalUs*3, last + 1, time.Duration(cfg.intervalUs) * time.Microsecond},
			}
			for _, m := range metrics {
				for _, r := range ranges {
					for _, agg := range allAggs {
						got, err := st.Query(m, r.since, r.until, r.step, agg)
						if err != nil {
							t.Fatalf("%s/%s/%s: %v", m, r.name, agg, err)
						}
						want, err := ref.Query(m, r.since, r.until, r.step, agg)
						if err != nil {
							t.Fatalf("%s/%s/%s ref: %v", m, r.name, agg, err)
						}
						if r.name == "whole-one-bucket" && len(want) == 0 {
							t.Fatalf("%s/%s: reference returned no points", m, r.name)
						}
						diffPoints(t, m+"/"+r.name+"/"+agg.String(), got, want)
					}
				}
			}
		})
	}
}

// TestQueryDifferentialWithReset injects a collector restart mid-stream
// and asserts the compressed and reference recorders still agree, and
// that counter-delta series never go negative across the reset.
func TestQueryDifferentialWithReset(t *testing.T) {
	seq := genSeq(7, 300, 50_000, 143)
	st, ref := feed(t, seq, Options{WindowSamples: 64})
	first, last := seq.ts[0], seq.ts[len(seq.ts)-1]
	for _, agg := range allAggs {
		got, err := st.Query("server_requests", first, last+1, 250*time.Millisecond, agg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query("server_requests", first, last+1, 250*time.Millisecond, agg)
		if err != nil {
			t.Fatal(err)
		}
		diffPoints(t, "reset/"+agg.String(), got, want)
	}
	// CounterDelta semantics: no negative deltas even across the reset.
	pts, err := st.Query("server_requests", first, last+1, 50*time.Millisecond, AggMin)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Value < 0 {
			t.Fatalf("negative counter delta %v at %d across reset", p.Value, p.TsUs)
		}
	}
}

// TestRetentionEviction forces the budget to evict sealed windows and
// checks (a) the store stays within budget with the newest window
// retained, (b) queries over the retained range still match the
// reference bitwise.
func TestRetentionEviction(t *testing.T) {
	seq := genSeq(99, 600, 20_000, -1)
	st, ref := feed(t, seq, Options{WindowSamples: 32, RetentionBytes: 60_000})
	stats := st.Stats()
	if stats.Evictions == 0 {
		t.Fatalf("no evictions at %d sealed bytes (budget 60000) — tighten the test budget", stats.SealedBytes)
	}
	if stats.SealedWindows == 0 {
		t.Fatal("eviction removed every sealed window; the newest must survive")
	}
	if stats.SealedBytes > 60_000 && stats.SealedWindows > 1 {
		t.Fatalf("sealed bytes %d exceed budget with %d windows retained", stats.SealedBytes, stats.SealedWindows)
	}
	// Query only the retained range: evicted samples are older than
	// EarliestUs, so both sides exclude them.
	since, until := stats.EarliestUs, stats.LatestUs+1
	for _, agg := range []AggKind{AggSum, AggCount, AggLast} {
		got, err := st.Query("scan_bytes_saved", since, until, 300*time.Millisecond, agg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query("scan_bytes_saved", since, until, 300*time.Millisecond, agg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatal("no points over the retained range")
		}
		diffPoints(t, "evicted/"+agg.String(), got, want)
	}
}

// TestFlushAndEmptyWindows pins the seal edge cases: flushing an empty
// store creates no window, flushing a partial tail seals exactly once,
// and a flushed store still answers queries identically to a reference
// flushed at the same point.
func TestFlushAndEmptyWindows(t *testing.T) {
	st := New(Options{WindowSamples: 16})
	st.Flush()
	if s := st.Stats(); s.SealedWindows != 0 || s.Scrapes != 0 {
		t.Fatalf("flush of empty store created state: %+v", s)
	}

	seq := genSeq(5, 21, 10_000, -1)
	st, ref := feed(t, seq, Options{WindowSamples: 16})
	if s := st.Stats(); s.SealedWindows != 1 || s.HotSamples != 5 {
		t.Fatalf("pre-flush state %+v, want 1 window + 5 hot", s)
	}
	st.Flush()
	ref.Flush()
	if s := st.Stats(); s.SealedWindows != 2 || s.HotSamples != 0 {
		t.Fatalf("post-flush state %+v, want 2 windows + 0 hot", s)
	}
	st.Flush() // tail now empty: must be a no-op
	if s := st.Stats(); s.SealedWindows != 2 {
		t.Fatalf("second flush sealed an empty window: %+v", s)
	}
	first, last := seq.ts[0], seq.ts[len(seq.ts)-1]
	got, err := st.Query("server_requests", first, last+1, 30*time.Millisecond, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query("server_requests", first, last+1, 30*time.Millisecond, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	diffPoints(t, "flushed", got, want)
}

// TestRawMatchesInput checks the store's end-to-end losslessness: Raw
// returns exactly the samples that went in, bit for bit, across sealed
// and hot segments.
func TestRawMatchesInput(t *testing.T) {
	seq := genSeq(11, 100, 10_000, -1)
	st, ref := feed(t, seq, Options{WindowSamples: 32})
	ts, vals, err := st.Raw("server_bytes_out")
	if err != nil {
		t.Fatal(err)
	}
	idx := ref.index["server_bytes_out"]
	var wantTs, wantVals []float64
	for _, seg := range ref.sealed {
		wantTs = append(wantTs, seg.ts...)
		wantVals = append(wantVals, seg.vals[idx]...)
	}
	wantTs = append(wantTs, ref.hotTs...)
	wantVals = append(wantVals, ref.hot[idx]...)
	if len(ts) != len(seq.ts) || len(vals) != len(seq.ts) {
		t.Fatalf("raw returned %d/%d samples, want %d", len(ts), len(vals), len(seq.ts))
	}
	for i := range ts {
		if math.Float64bits(ts[i]) != math.Float64bits(wantTs[i]) {
			t.Fatalf("timestamp %d: %v != %v", i, ts[i], wantTs[i])
		}
		if math.Float64bits(vals[i]) != math.Float64bits(wantVals[i]) {
			t.Fatalf("value %d: %v != %v", i, vals[i], wantVals[i])
		}
		if int64(ts[i]) != seq.ts[i] {
			t.Fatalf("timestamp %d: %v is not the scrape time %d", i, ts[i], seq.ts[i])
		}
	}

	if _, _, err := st.Raw("no_such_series"); err == nil {
		t.Fatal("Raw(unknown) did not error")
	}
	if _, err := st.Query("no_such_series", 0, 1, 0, AggSum); err == nil {
		t.Fatal("Query(unknown) did not error")
	}
}

// TestQueryValidation pins the range/step error handling.
func TestQueryValidation(t *testing.T) {
	st := New(Options{})
	if _, err := st.Query("server_requests", 100, 100, time.Second, AggSum); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := st.Query("server_requests", 200, 100, time.Second, AggSum); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := st.Query("server_requests", 0, int64(maxQueryBuckets+1), time.Microsecond, AggSum); err == nil {
		t.Fatal("bucket-count limit not enforced")
	}
	if _, err := ParseAgg("median"); err == nil {
		t.Fatal("ParseAgg accepted an unknown agg")
	}
	for name, k := range aggNames {
		got, err := ParseAgg(name)
		if err != nil || got != k {
			t.Fatalf("ParseAgg(%q) = %v, %v", name, got, err)
		}
		if k.String() != name {
			t.Fatalf("String(%v) = %q, want %q", k, k.String(), name)
		}
	}
}

// TestSchemaCoversMetricsKeys asserts every flat /metrics key (counters
// and histogram flats) exists as a history series — the "everything
// you can read point-in-time has a history" contract.
func TestSchemaCoversMetricsKeys(t *testing.T) {
	st := New(Options{})
	have := make(map[string]bool, len(st.Names()))
	for _, n := range st.Names() {
		have[n] = true
	}
	for _, c := range (obs.Snapshot{}).Counters() {
		if !have[c.Name] {
			t.Errorf("counter %q has no history series", c.Name)
		}
	}
	for i := 0; i < int(obs.NumHists); i++ {
		for _, m := range (obs.HistSnapshot{}).Flats(obs.HistName(obs.HistID(i))) {
			if !have[m.Name] {
				t.Errorf("histogram key %q has no history series", m.Name)
			}
		}
	}
	// Bucket series only exist when asked for.
	if have["lat_scan_bucket0"] {
		t.Error("bucket series present without HistogramBuckets")
	}
	stB := New(Options{HistogramBuckets: true})
	foundBucket := false
	for _, n := range stB.Names() {
		if n == "lat_scan_bucket0" {
			foundBucket = true
		}
	}
	if !foundBucket {
		t.Error("HistogramBuckets did not add bucket series")
	}
}
