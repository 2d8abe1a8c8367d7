package alp

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/obs"
)

// withStats runs fn with global metrics collection enabled and freshly
// zeroed, restoring the disabled state afterwards so other tests see
// the default configuration.
func withStats(t *testing.T, fn func()) {
	t.Helper()
	EnableStats()
	ResetStats()
	defer DisableStats()
	fn()
}

// decimalColumn builds nVec vectors of clean decimal values in disjoint
// per-vector bands (vector v holds 1000*v + small decimals), so scheme
// choice, exception counts and zone-map behaviour are all exactly
// predictable.
func decimalColumn(nVec int) []float64 {
	values := make([]float64, nVec*VectorSize)
	for i := range values {
		values[i] = float64(i/VectorSize)*1000 + float64(i%7)/100
	}
	return values
}

func TestStatsEncodeCounts(t *testing.T) {
	withStats(t, func() {
		values := decimalColumn(3) // 3 vectors, 1 row-group
		Encode(values)
		s := ReadStats()
		if s.RowGroupsALP != 1 || s.RowGroupsRD != 0 {
			t.Fatalf("row groups ALP/RD = %d/%d, want 1/0", s.RowGroupsALP, s.RowGroupsRD)
		}
		if s.VectorsEncoded != 3 {
			t.Fatalf("VectorsEncoded = %d, want 3", s.VectorsEncoded)
		}
		if s.EncodeExceptions != 0 {
			t.Fatalf("EncodeExceptions = %d, want 0", s.EncodeExceptions)
		}
		if s.EncodeValues != int64(len(values)) {
			t.Fatalf("EncodeValues = %d, want %d", s.EncodeValues, len(values))
		}
		if s.EncodeNs <= 0 {
			t.Fatalf("EncodeNs = %d, want > 0", s.EncodeNs)
		}
		// Every encoded decimal vector lands in the bit-width histogram.
		var hist int64
		for _, n := range s.BitWidthHist {
			hist += n
		}
		if hist != 3 {
			t.Fatalf("bit-width histogram holds %d vectors, want 3", hist)
		}
		// Second-stage accounting covers every vector exactly once.
		if got := s.SecondStageSkips + secondStageRuns(s); got != 3 {
			t.Fatalf("second-stage skips+runs = %d, want 3", got)
		}
	})
}

// TestStats32EncodeCounts asserts the float32 encode path feeds the
// same collector hooks as the 64-bit one.
func TestStats32EncodeCounts(t *testing.T) {
	withStats(t, func() {
		values := make([]float32, 3*VectorSize)
		for i := range values {
			values[i] = float32(i%1000) / 10
		}
		data := Encode32(values)
		s := ReadStats()
		if s.RowGroupsALP != 1 || s.RowGroupsRD != 0 {
			t.Fatalf("row groups ALP/RD = %d/%d, want 1/0", s.RowGroupsALP, s.RowGroupsRD)
		}
		if s.VectorsEncoded != 3 {
			t.Fatalf("VectorsEncoded = %d, want 3", s.VectorsEncoded)
		}
		if s.EncodeValues != int64(len(values)) {
			t.Fatalf("EncodeValues = %d, want %d", s.EncodeValues, len(values))
		}
		ResetStats()
		if _, err := Decode32(data); err != nil {
			t.Fatal(err)
		}
		s = ReadStats()
		if s.VectorsDecoded != 3 || s.DecodeValues != int64(len(values)) {
			t.Fatalf("decoded vectors/values = %d/%d, want 3/%d",
				s.VectorsDecoded, s.DecodeValues, len(values))
		}
	})
}

// secondStageRuns derives how many vectors ran second-stage sampling:
// each run tries at least one candidate, and skipped vectors try none,
// so runs = vectors encoded in decimal scheme minus skips.
func secondStageRuns(s Stats) int64 {
	runs := s.VectorsEncoded - s.SecondStageSkips
	if runs < 0 {
		return 0
	}
	return runs
}

func TestStatsRDFallbackCounts(t *testing.T) {
	withStats(t, func() {
		// Full-mantissa random doubles defeat the decimal scheme: the
		// row-group must fall back to ALP_rd and report its sampling.
		r := rand.New(rand.NewSource(7))
		values := make([]float64, 2*VectorSize)
		for i := range values {
			values[i] = r.NormFloat64()
		}
		col := Compress(values)
		if !col.UsedRD() {
			t.Skip("random data unexpectedly encodable as decimals")
		}
		s := ReadStats()
		if s.RowGroupsRD != 1 || s.RowGroupsALP != 0 {
			t.Fatalf("row groups ALP/RD = %d/%d, want 0/1", s.RowGroupsALP, s.RowGroupsRD)
		}
		if s.VectorsEncoded != 2 {
			t.Fatalf("VectorsEncoded = %d, want 2", s.VectorsEncoded)
		}
		if s.RDSampledRowGroups != 1 || s.RDCutsTried != 16 {
			t.Fatalf("RD sampling: %d groups, %d cuts, want 1 and 16",
				s.RDSampledRowGroups, s.RDCutsTried)
		}
		// RD vectors must not pollute the FFOR bit-width histogram.
		for w, n := range s.BitWidthHist {
			if n != 0 {
				t.Fatalf("hist[%d] = %d, want empty histogram for RD-only column", w, n)
			}
		}
	})
}

// TestStatsPipelineCounts asserts the worker-pool hooks thread through
// to the public Stats: a parallel encode over g row-groups reports g
// claims and the spawned worker count, and the parallel decode adds the
// same again.
func TestStatsPipelineCounts(t *testing.T) {
	withStats(t, func() {
		values := decimalColumn(2*RowGroupSize/VectorSize + 1) // 3 row-groups
		data := EncodeParallel(values, 2)
		s := ReadStats()
		if s.PipelineWorkers != 2 {
			t.Fatalf("PipelineWorkers = %d, want 2", s.PipelineWorkers)
		}
		if s.PipelineClaims != 3 {
			t.Fatalf("PipelineClaims = %d, want 3 (one per row-group)", s.PipelineClaims)
		}

		ResetStats()
		if _, err := DecodeParallel(data, 2); err != nil {
			t.Fatal(err)
		}
		s = ReadStats()
		if s.PipelineWorkers != 2 || s.PipelineClaims != 3 {
			t.Fatalf("decode pipeline workers/claims = %d/%d, want 2/3",
				s.PipelineWorkers, s.PipelineClaims)
		}

		// The serial path spawns no pool at all.
		ResetStats()
		EncodeParallel(values, 1)
		if s := ReadStats(); s.PipelineWorkers != 0 || s.PipelineClaims != 0 {
			t.Fatalf("serial encode touched pipeline counters: %+v", s)
		}
	})
}

func TestStatsSumRangeSkipCounts(t *testing.T) {
	withStats(t, func() {
		values := decimalColumn(5)
		col := Compress(values)
		ResetStats() // isolate the scan-side counters

		// The predicate selects exactly vector 2's band (values in
		// [2000, 2000.06]); zone maps must prune the other four vectors.
		sum, count, touched := col.SumRange(2000, 2000.07)
		if touched != 1 || count != VectorSize {
			t.Fatalf("touched %d count %d, want 1 and %d", touched, count, VectorSize)
		}
		var want float64
		for i := 2 * VectorSize; i < 3*VectorSize; i++ {
			want += values[i]
		}
		if math.Abs(sum-want) > 1e-9 {
			t.Fatalf("sum = %v, want %v", sum, want)
		}

		s := ReadStats()
		if s.RangeScans != 1 {
			t.Fatalf("RangeScans = %d, want 1", s.RangeScans)
		}
		if s.VectorsDecoded != 1 {
			t.Fatalf("VectorsDecoded = %d, want 1", s.VectorsDecoded)
		}
		if s.VectorsSkipped != 4 {
			t.Fatalf("VectorsSkipped = %d, want 4", s.VectorsSkipped)
		}
		if got := s.SkipRate(); got != 0.8 {
			t.Fatalf("SkipRate = %v, want 0.8", got)
		}
		if s.DecodeValues != VectorSize {
			t.Fatalf("DecodeValues = %d, want %d", s.DecodeValues, VectorSize)
		}
	})
}

func TestStatsDisabledIsZero(t *testing.T) {
	DisableStats()
	ResetStats() // must be a safe no-op with collection off
	Encode(decimalColumn(2))
	if s := ReadStats(); s != (Stats{}) {
		t.Fatalf("stats collected while disabled: %+v", s)
	}
	if StatsEnabled() {
		t.Fatal("StatsEnabled() = true, want false")
	}
}

func TestStatsStringIsExpvarJSON(t *testing.T) {
	withStats(t, func() {
		Encode(decimalColumn(2))
		var m map[string]any
		if err := json.Unmarshal([]byte(ReadStats().String()), &m); err != nil {
			t.Fatalf("Stats.String() is not valid JSON: %v", err)
		}
		if m["vectors_encoded"].(float64) != 2 {
			t.Fatalf("vectors_encoded = %v, want 2", m["vectors_encoded"])
		}
	})
}

// TestStatsCoverCounterTable checks that the metric tags on Stats and
// the obs counter table describe the same set: every counter maps to
// exactly one Stats field and every int64 field to one counter, and
// ReadStats and String carry every value across unchanged.
func TestStatsCoverCounterTable(t *testing.T) {
	fields := map[string]string{} // counter name -> Stats field
	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		name, tagged := f.Tag.Lookup("metric")
		if f.Type.Kind() != reflect.Int64 {
			if tagged {
				t.Errorf("Stats.%s is tagged but not an int64", f.Name)
			}
			continue
		}
		if !tagged {
			t.Errorf("Stats.%s carries no metric tag", f.Name)
			continue
		}
		if prev, dup := fields[name]; dup {
			t.Errorf("counter %s is carried by both Stats.%s and Stats.%s", name, prev, f.Name)
		}
		fields[name] = f.Name
	}
	counters := (obs.Snapshot{}).Counters()
	for _, m := range counters {
		if _, ok := fields[m.Name]; !ok {
			t.Errorf("counter %s has no Stats field", m.Name)
		}
	}
	if len(fields) != len(counters) {
		t.Errorf("%d tagged Stats fields, %d counters", len(fields), len(counters))
	}

	withStats(t, func() {
		c := obs.Active()
		for id := obs.Counter(0); id < obs.NumCounters; id++ {
			c.Add(id, 1000+int64(id))
		}
		c.VectorEncoded(0, 0, 9)
		got := ReadStats()
		v := reflect.ValueOf(got)
		snap := c.Snapshot()
		for i, m := range snap.Counters() {
			if f := v.FieldByName(fields[m.Name]).Int(); f != m.Value {
				t.Errorf("Stats.%s = %d, counter %s = %d", fields[m.Name], f, m.Name, m.Value)
			}
			if m.Value != snap.Counts[i] {
				t.Fatalf("Counters()[%d] is not Counts[%d]", i, i)
			}
		}
		if got.BitWidthHist != snap.BitWidthHist {
			t.Error("ReadStats dropped the bit-width histogram")
		}
		want := obs.Snapshot{Counts: snap.Counts, BitWidthHist: snap.BitWidthHist}.String()
		if s := got.String(); s != want {
			t.Errorf("Stats.String() =\n%s\nwant the counter snapshot\n%s", s, want)
		}
		if got.ClusterScatters == 0 || !strings.Contains(got.String(), `"cluster_scatters":1035`) {
			t.Errorf("cluster counters missing from Stats: %+v", got)
		}
	})
}

// TestMetricsJSONIncludesLiveHistograms guards the /metrics path used
// by alpbench: a Stats value carries only the counters, so rendering
// ReadStats().String() silently zeroes every lat_*/stage_* key.
// MetricsJSON must read the live collector and include real histogram
// samples alongside the counters.
func TestMetricsJSONIncludesLiveHistograms(t *testing.T) {
	withStats(t, func() {
		Encode(decimalColumn(2))
		var m map[string]any
		if err := json.Unmarshal([]byte(MetricsJSON()), &m); err != nil {
			t.Fatalf("MetricsJSON() is not valid JSON: %v", err)
		}
		if m["vectors_encoded"].(float64) != 2 {
			t.Fatalf("vectors_encoded = %v, want 2", m["vectors_encoded"])
		}
		if m["stage_encode_count"].(float64) == 0 {
			t.Fatal("stage_encode_count = 0: MetricsJSON dropped the live histograms")
		}
		if m["stage_encode_p50_ns"].(float64) <= 0 {
			t.Fatalf("stage_encode_p50_ns = %v, want > 0", m["stage_encode_p50_ns"])
		}
	})
	DisableStats()
	var m map[string]any
	if err := json.Unmarshal([]byte(MetricsJSON()), &m); err != nil {
		t.Fatalf("disabled MetricsJSON() is not valid JSON: %v", err)
	}
}

func TestColumnStats(t *testing.T) {
	values := decimalColumn(3)
	col := Compress(values)
	info, err := ColumnStats(col.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Values != len(values) || info.NumVectors != 3 || info.NumRowGroups != 1 {
		t.Fatalf("layout: %d values %d vectors %d row-groups",
			info.Values, info.NumVectors, info.NumRowGroups)
	}
	if info.UsedRD {
		t.Fatal("UsedRD = true for decimal column")
	}
	if !info.HasZoneMap {
		t.Fatal("HasZoneMap = false, want true")
	}
	if info.Exceptions != col.Exceptions() {
		t.Fatalf("Exceptions = %d, want %d", info.Exceptions, col.Exceptions())
	}
	if info.BitsPerValue != col.BitsPerValue() {
		t.Fatalf("BitsPerValue = %v, want %v", info.BitsPerValue, col.BitsPerValue())
	}

	rg := info.RowGroups[0]
	if rg.Scheme != SchemeALP || rg.Start != 0 || rg.Values != len(values) {
		t.Fatalf("row-group 0: %+v", rg)
	}
	if len(rg.Combos) == 0 {
		t.Fatal("row-group 0 has no sampled combos")
	}
	if len(rg.Vectors) != 3 {
		t.Fatalf("row-group 0 has %d vectors, want 3", len(rg.Vectors))
	}
	sumBits, sumExc := 0, 0
	for i, v := range rg.Vectors {
		if v.Index != i {
			t.Fatalf("vector %d has index %d", i, v.Index)
		}
		if v.Values != VectorSize {
			t.Fatalf("vector %d has %d values", i, v.Values)
		}
		if v.F > v.E {
			t.Fatalf("vector %d combo (%d, %d) invalid", i, v.E, v.F)
		}
		if v.BitWidth > 64 {
			t.Fatalf("vector %d width %d", i, v.BitWidth)
		}
		sumBits += v.CompressedBits
		sumExc += v.Exceptions
	}
	if sumExc != rg.Exceptions {
		t.Fatalf("vector exceptions sum %d != row-group %d", sumExc, rg.Exceptions)
	}
	if sumBits > rg.CompressedBits {
		t.Fatalf("vector bits %d exceed row-group bits %d", sumBits, rg.CompressedBits)
	}

	// Info() on the in-memory column additionally carries the sampling
	// telemetry that the serialized stream does not.
	mem := Compress(values).Info()
	if len(mem.RowGroups[0].SecondStageTried) != 3 {
		t.Fatalf("SecondStageTried = %v, want 3 entries", mem.RowGroups[0].SecondStageTried)
	}
}

func TestColumnStatsRD(t *testing.T) {
	d, _ := dataset.ByName("POI-lat")
	values := d.Generate(2 * VectorSize)
	col := Compress(values)
	if !col.UsedRD() {
		t.Skip("POI-lat unexpectedly encoded as decimals")
	}
	info := col.Info()
	rg := info.RowGroups[0]
	if rg.Scheme != SchemeRD {
		t.Fatalf("scheme = %v, want ALP_rd", rg.Scheme)
	}
	if rg.CutPosition < 48 || rg.CutPosition > 63 {
		t.Fatalf("cut position %d out of [48, 63]", rg.CutPosition)
	}
	if rg.DictSize < 1 || rg.DictSize > 8 {
		t.Fatalf("dict size %d out of [1, 8]", rg.DictSize)
	}
	for _, v := range rg.Vectors {
		if want := uint(rg.CutPosition) + rg.CodeWidth; v.BitWidth != want {
			t.Fatalf("RD vector width %d, want %d", v.BitWidth, want)
		}
	}
}

func TestColumnStatsRejectsCorrupt(t *testing.T) {
	if _, err := ColumnStats([]byte("junk")); err == nil {
		t.Fatal("want error on garbage stream")
	}
}

func TestSchemeAccessors(t *testing.T) {
	col := Compress(decimalColumn(2))
	if col.NumRowGroups() != 1 {
		t.Fatalf("NumRowGroups = %d, want 1", col.NumRowGroups())
	}
	s, err := col.Scheme(0)
	if err != nil || s != SchemeALP {
		t.Fatalf("Scheme(0) = %v, %v", s, err)
	}
	if s.String() != "ALP" || SchemeRD.String() != "ALP_rd" {
		t.Fatalf("scheme names: %q, %q", s.String(), SchemeRD.String())
	}
	if _, err := col.Scheme(1); err == nil {
		t.Fatal("Scheme(1) out of range must error")
	}
	if _, err := col.Scheme(-1); err == nil {
		t.Fatal("Scheme(-1) must error")
	}
	if col.Exceptions() != 0 {
		t.Fatalf("Exceptions = %d, want 0 for clean decimals", col.Exceptions())
	}

	// An exception-bearing column reports them through the public API.
	values := decimalColumn(1)
	values[10] = math.Pi // full-mantissa value: certain exception
	col = Compress(values)
	if got, _ := col.Scheme(0); got == SchemeALP && col.Exceptions() == 0 {
		t.Fatal("math.Pi did not surface as an exception")
	}
}

// TestReadVectorInto checks the caller-owned-scratch access path,
// including the documented concurrent use of one shared Column.
func TestReadVectorInto(t *testing.T) {
	d, _ := dataset.ByName("Stocks-USA")
	values := d.Generate(4 * VectorSize)
	col, err := Open(Encode(values))
	if err != nil {
		t.Fatal(err)
	}

	// Sequential: matches ReadVector.
	want := make([]float64, VectorSize)
	got := make([]float64, VectorSize)
	scratch := make([]int64, VectorSize)
	for i := 0; i < col.NumVectors(); i++ {
		wn, err := col.ReadVector(i, want)
		if err != nil {
			t.Fatal(err)
		}
		gn, err := col.ReadVectorInto(i, got, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if gn != wn {
			t.Fatalf("vector %d: %d values, want %d", i, gn, wn)
		}
		for j := 0; j < gn; j++ {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("vector %d value %d differs", i, j)
			}
		}
	}

	// nil scratch allocates per call; short scratch errors.
	if _, err := col.ReadVectorInto(0, got, nil); err != nil {
		t.Fatalf("nil scratch: %v", err)
	}
	if _, err := col.ReadVectorInto(0, got, make([]int64, 8)); err == nil {
		t.Fatal("short scratch must error")
	}
	if _, err := col.ReadVectorInto(-1, got, scratch); err == nil {
		t.Fatal("negative index must error")
	}
	if _, err := col.ReadVectorInto(col.NumVectors(), got, scratch); err == nil {
		t.Fatal("out-of-range index must error")
	}

	// Concurrent: one shared Column, per-goroutine dst+scratch. Run
	// with -race this validates the documented contract.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, VectorSize)
			scr := make([]int64, VectorSize)
			for i := 0; i < col.NumVectors(); i++ {
				n, err := col.ReadVectorInto(i, dst, scr)
				if err != nil {
					errs <- err
					return
				}
				lo := i * VectorSize
				for j := 0; j < n; j++ {
					if math.Float64bits(dst[j]) != math.Float64bits(values[lo+j]) {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
