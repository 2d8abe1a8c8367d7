package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilCollectorIsSafe exercises every hook on a nil receiver: the
// nil-safe collector pattern is the contract instrumented hot paths
// rely on.
func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Add(RangeScans, 1)
	c.RowGroup(true)
	c.RowGroup(false)
	c.VectorEncoded(1024, 3, 17)
	c.EncodeTime(100, 1024)
	c.SecondStage(3, true)
	c.RDSampled(16, 8)
	c.VectorDecoded(1024, 50)
	c.FlushScanBatch(&ScanBatch{Pushdown: 1})
	c.ScanFrames(1, 2, 3, 4)
	c.ClusterScatter(2)
	c.Reset()
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil collector snapshot not zero: %+v", s)
	}
}

// TestAddRangeSafe checks that Add ignores ids outside the table
// instead of panicking, like Observe does for histograms.
func TestAddRangeSafe(t *testing.T) {
	var c Collector
	c.Add(-1, 5)
	c.Add(NumCounters, 5)
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("out-of-range Add changed the snapshot: %+v", s.Counts)
	}
	c.Add(ClusterRebalances, 5)
	if got := c.Snapshot().Counts[ClusterRebalances]; got != 5 {
		t.Fatalf("Add(ClusterRebalances, 5) = %d", got)
	}
}

// TestCounterTable checks the table itself: every counter has a
// unique snake_case name, and Counters() lists them in table order.
func TestCounterTable(t *testing.T) {
	seen := map[string]bool{}
	var s Snapshot
	for i := range s.Counts {
		s.Counts[i] = int64(i) + 1
	}
	for i, m := range s.Counters() {
		if m.Name == "" || strings.Trim(m.Name, "abcdefghijklmnopqrstuvwxyz_") != "" {
			t.Errorf("counter %d has name %q", i, m.Name)
		}
		if seen[m.Name] {
			t.Errorf("counter name %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Value != int64(i)+1 {
			t.Errorf("Counters()[%d] = %s:%d, want value %d", i, m.Name, m.Value, i+1)
		}
	}
	if len(seen) != int(NumCounters) {
		t.Fatalf("%d counter names, want %d", len(seen), NumCounters)
	}
}

func TestCollectorCounts(t *testing.T) {
	c := &Collector{}
	c.RowGroup(false)
	c.RowGroup(false)
	c.RowGroup(true)
	c.VectorEncoded(1024, 2, 17)
	c.VectorEncoded(1000, 0, 17)
	c.VectorEncoded(1024, 5, WidthNone) // RD vector: no histogram entry
	c.EncodeTime(500, 3048)
	c.Add(SecondStageSkips, 1)
	c.SecondStage(3, true)
	c.SecondStage(5, false)
	c.RDSampled(16, 8)
	c.VectorDecoded(1024, 40)
	c.VectorDecoded(512, 20)
	c.Add(VectorsSkipped, 6)
	b := ScanBatch{}
	b.Vector(10, true)
	b.Vector(3, false)
	b.Vector(0, true)
	c.FlushScanBatch(&b)
	c.ScanFrames(4, 0, 1, -12)
	c.ClusterScatter(3)

	s := c.Snapshot()
	want := map[Counter]int64{
		RowGroupsALP: 2, RowGroupsRD: 1,
		VectorsEncoded: 3, EncodeExceptions: 7,
		EncodeNs: 500, EncodeValues: 3048,
		SecondStageSkips: 1, SecondStageEarlyExits: 1, SecondStageTried: 8,
		RDSampledRowGroups: 1, RDCutsTried: 16, RDDictEntries: 8,
		VectorsDecoded: 2, DecodeValues: 1536, DecodeNs: 60,
		VectorsSkipped:  6,
		PushdownVectors: 2, PushdownFallbacks: 1, SelectedRows: 13,
		ScanFramesDense: 4, ScanFramesRaw: 1, ScanBytesSaved: -12,
		ClusterScatters: 1,
	}
	for i, m := range s.Counters() {
		if m.Value != want[Counter(i)] {
			t.Errorf("%s = %d, want %d", m.Name, m.Value, want[Counter(i)])
		}
	}
	if b != (ScanBatch{}) {
		t.Errorf("FlushScanBatch left the batch at %+v", b)
	}
	if s.BitWidthHist[17] != 2 {
		t.Errorf("hist[17] = %d, want 2", s.BitWidthHist[17])
	}
	for w, n := range s.BitWidthHist {
		if w != 17 && n != 0 {
			t.Errorf("hist[%d] = %d, want 0", w, n)
		}
	}
	if h := s.Hists[HistClusterFanout]; h.Count != 1 || h.SumNs != 3 {
		t.Errorf("fanout histogram count %d sum %d, want 1 and 3", h.Count, h.SumNs)
	}

	c.Reset()
	if got := c.Snapshot(); got != (Snapshot{}) {
		t.Fatalf("Reset left counters: %+v", got)
	}
}

// TestSnapshotStringIsJSON asserts the hand-rolled expvar rendering is
// valid JSON with the expected keys.
func TestSnapshotStringIsJSON(t *testing.T) {
	c := &Collector{}
	c.VectorEncoded(1024, 1, 3)
	c.VectorDecoded(1024, 10)
	var m map[string]any
	if err := json.Unmarshal([]byte(c.Snapshot().String()), &m); err != nil {
		t.Fatalf("Snapshot.String() is not valid JSON: %v\n%s", err, c.Snapshot().String())
	}
	for _, key := range []string{"row_groups_alp", "vectors_encoded", "vectors_decoded",
		"vectors_skipped", "morsel_claims", "bit_width_hist",
		"pipeline_workers", "pipeline_claims", "pipeline_stalls"} {
		if _, ok := m[key]; !ok {
			t.Errorf("key %q missing from snapshot JSON", key)
		}
	}
	if hist, ok := m["bit_width_hist"].([]any); !ok || len(hist) != MaxBitWidth+1 {
		t.Errorf("bit_width_hist malformed: %v", m["bit_width_hist"])
	}
}

func TestEnableDisable(t *testing.T) {
	defer Disable()
	Disable()
	if Active() != nil {
		t.Fatal("Active() != nil after Disable")
	}
	c := Enable()
	if c == nil || Active() != c {
		t.Fatal("Enable did not install a collector")
	}
	if again := Enable(); again != c {
		t.Fatal("Enable is not idempotent")
	}
	Disable()
	if Active() != nil {
		t.Fatal("Disable did not clear the collector")
	}
}

// TestConcurrentCounting hammers one collector from many goroutines;
// with -race this validates the atomic-counter contract end to end.
func TestConcurrentCounting(t *testing.T) {
	c := &Collector{}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.VectorDecoded(1024, 1)
				c.Add(MorselClaims, 1)
				c.VectorEncoded(1024, 1, 12)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Counts[VectorsDecoded] != workers*per || s.Counts[MorselClaims] != workers*per ||
		s.Counts[VectorsEncoded] != workers*per || s.BitWidthHist[12] != workers*per {
		t.Fatalf("lost updates: %+v", s)
	}
}
