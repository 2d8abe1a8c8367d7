package obs

import (
	"sort"
	"strings"
	"testing"
)

func TestCounterDelta(t *testing.T) {
	cases := []struct {
		cur, prev, want int64
	}{
		{10, 4, 6},
		{4, 4, 0},
		{0, 0, 0},
		// Reset: the counter went backwards, so the new total is the
		// delta — a restarted process contributed everything it counted.
		{3, 10, 3},
		{0, 10, 0},
	}
	for _, c := range cases {
		if got := CounterDelta(c.cur, c.prev); got != c.want {
			t.Errorf("CounterDelta(%d, %d) = %d, want %d", c.cur, c.prev, got, c.want)
		}
	}
}

func TestHistSnapshotDelta(t *testing.T) {
	var h Histogram
	h.Record(100)
	h.Record(1000)
	prev := h.Snapshot()
	h.Record(5)
	h.Record(5000)
	cur := h.Snapshot()

	d := cur.Delta(prev)
	if d.Count != 2 {
		t.Fatalf("delta count = %d, want 2", d.Count)
	}
	if d.SumNs != 5005 {
		t.Fatalf("delta sum = %d, want 5005", d.SumNs)
	}
	if d.MaxNs != 5000 {
		t.Fatalf("delta max = %d, want the current high-water 5000", d.MaxNs)
	}
	var total int64
	for _, b := range d.Buckets {
		total += b
	}
	if total != 2 {
		t.Fatalf("delta bucket total = %d, want 2", total)
	}

	// Reset between scrapes: current count below previous means the
	// collector restarted; the delta is the whole current snapshot.
	var fresh Histogram
	fresh.Record(7)
	got := fresh.Snapshot().Delta(prev)
	if got.Count != 1 || got.SumNs != 7 {
		t.Fatalf("reset delta = %+v, want the fresh snapshot", got)
	}

	// Self-delta is empty.
	if z := cur.Delta(cur); z.Count != 0 || z.SumNs != 0 {
		t.Fatalf("self delta = %+v, want zero", z)
	}
}

// TestHistSnapshotDeltaTornBucket guards the clamp: a bucket that reads
// lower than before without a count reset (a torn concurrent read) must
// not go negative.
func TestHistSnapshotDeltaTornBucket(t *testing.T) {
	var prev, cur HistSnapshot
	prev.Count, cur.Count = 2, 3
	prev.Buckets[3] = 2
	cur.Buckets[3] = 1 // torn: lost an increment
	cur.Buckets[5] = 2
	d := cur.Delta(prev)
	if d.Buckets[3] != 0 {
		t.Fatalf("torn bucket delta = %d, want clamped 0", d.Buckets[3])
	}
	if d.Buckets[5] != 2 {
		t.Fatalf("bucket 5 delta = %d, want 2", d.Buckets[5])
	}
}

// TestSnapshotJSONSorted pins the sorted-key contract of the /metrics
// JSON: keys must appear in strictly increasing order so two reads of
// equal state are byte-identical, and extras splice into sorted
// position rather than dangling at the end.
func TestSnapshotJSONSorted(t *testing.T) {
	var c Collector
	c.Add(ServerRequests, 1)
	c.Observe(HistScan, 1234)
	out := c.Snapshot().JSON(Extra{Name: "columns", JSON: `{"a":1}`})
	keys := jsonKeys(t, out)
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("JSON keys are not sorted:\n%v", keys)
	}
	found := false
	for _, k := range keys {
		if k == "columns" {
			found = true
		}
	}
	if !found {
		t.Fatal("extra key \"columns\" missing from rendering")
	}
	// Determinism: an identical snapshot renders byte-identically.
	if again := c.Snapshot().JSON(Extra{Name: "columns", JSON: `{"a":1}`}); again != out {
		t.Fatal("two renderings of the same state differ")
	}
}

// jsonKeys extracts top-level key order from the hand-rolled rendering
// (encoding/json maps would lose it). Only depth-1 strings immediately
// after '{' or ',' are keys; strings nested inside values are skipped.
func jsonKeys(t *testing.T, s string) []string {
	t.Helper()
	var keys []string
	depth := 0
	expectKey := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{', '[':
			depth++
			expectKey = depth == 1
		case '}', ']':
			depth--
		case ',':
			expectKey = depth == 1
		case '"':
			end := strings.IndexByte(s[i+1:], '"')
			if end < 0 {
				t.Fatalf("unterminated string at %d", i)
			}
			if expectKey && depth == 1 {
				keys = append(keys, s[i+1:i+1+end])
				expectKey = false
			}
			i += end + 1
		}
	}
	return keys
}

func TestWritePrometheus(t *testing.T) {
	var c Collector
	c.Add(ServerRequests, 1)
	c.Add(ServerRequests, 1)
	c.VectorEncoded(1024, 3, 17)
	c.Observe(HistAgg, 900)
	c.Observe(HistAgg, 100)
	var b strings.Builder
	if err := c.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE alp_server_requests counter\nalp_server_requests 2\n",
		"alp_bit_width_vectors{width=\"17\"} 1\n",
		"# TYPE alp_lat_agg_ns histogram\n",
		"alp_lat_agg_ns_bucket{le=\"+Inf\"} 2\n",
		"alp_lat_agg_ns_sum 1000\n",
		"alp_lat_agg_ns_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Cumulative buckets must be monotone non-decreasing per histogram.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "alp_lat_agg_ns_bucket") {
			var v int64
			if _, err := fmtSscanValue(line, &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			if v < last {
				t.Fatalf("bucket series not cumulative: %q after %d", line, last)
			}
			last = v
		}
	}
	if last != 2 {
		t.Fatalf("final cumulative bucket = %d, want 2", last)
	}
}

func fmtSscanValue(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	return fmtSscan(line[i+1:], v)
}

func fmtSscan(s string, v *int64) (int, error) {
	var x int64
	for _, r := range s {
		if r < '0' || r > '9' {
			break
		}
		x = x*10 + int64(r-'0')
	}
	*v = x
	return 1, nil
}
