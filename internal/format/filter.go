// Encoded-domain predicate pushdown over the columnar layout.
//
// A range predicate [lo, hi] over the column is answered per vector:
// decimal-scheme (ALP) vectors translate the bounds into their own
// (e, f) encoded-integer domain — exact, because ALP's decode map is
// monotone in the encoded integer for a fixed combination — and run
// the fused FFOR unpack+compare kernel, patching exception slots with
// the float-domain predicate. ALP_rd vectors have no order-preserving
// integer domain (the front bits are a dictionary code), so they fall
// back to decode-then-filter. Both paths produce the same selection
// bitmap a plain decode-and-compare scan would.
package format

import (
	"math"
	"time"

	"github.com/goalp/alp/internal/fastlanes"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/vector"
)

// SelWords is the selection-bitmap length (in uint64 words) needed for
// one full vector.
const SelWords = vector.Size / 64

// fullMatch reports whether every row of vector i qualifies for
// [lo, hi] on metadata alone: the zone range is inside the predicate
// and the vector is a decimal-scheme vector with no exceptions (an
// exception-free ALP vector cannot hold NaN, so the zone bounds cover
// every row). Such vectors need no unpack and no compare.
func (c *Column) fullMatch(i int, lo, hi float64) bool {
	if c.Zones == nil || !c.Zones.Contains(i, lo, hi) {
		return false
	}
	g := i / vector.RowGroupVectors
	local := i % vector.RowGroupVectors
	rg := &c.RowGroups[g]
	return rg.Scheme == SchemeALP && len(rg.Vectors[local].ExcPos) == 0
}

// vectorLen returns the row count of vector i.
func (c *Column) vectorLen(i int) int {
	g := i / vector.RowGroupVectors
	local := i % vector.RowGroupVectors
	rg := &c.RowGroups[g]
	if rg.Scheme == SchemeALP {
		return rg.Vectors[local].N
	}
	return rg.RDVectors[local].N
}

// setAllSel sets the first n bits of sel.
func setAllSel(sel []uint64, n int) {
	nw := fastlanes.SelWords(n)
	for i := 0; i < nw; i++ {
		sel[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		sel[nw-1] = (1 << uint(r)) - 1
	}
}

// FilterVector evaluates the closed range [lo, hi] over vector i,
// writing a selection bitmap into sel (fastlanes.SelWords(n) words for
// the vector's n values) and returning the match count plus whether
// the encoded-domain pushdown kernel answered it (false = the vector
// was decoded to floats). buf and scratch must each hold vector.Size
// elements; no other allocation happens. NaN values never match.
//
// The pushdown counters are the caller's job: scan loops fold the
// (count, pushdown) results into an obs.ScanBatch and flush it per
// partition, so the per-vector path records nothing.
func (c *Column) FilterVector(i int, lo, hi float64, sel []uint64, buf []float64, scratch []int64) (count int, pushdown bool) {
	if c.fullMatch(i, lo, hi) {
		// Metadata-only answer: every row qualifies, the payload is
		// never touched.
		n := c.vectorLen(i)
		setAllSel(sel, n)
		return n, true
	}
	g := i / vector.RowGroupVectors
	local := i % vector.RowGroupVectors
	rg := &c.RowGroups[g]
	if rg.Scheme == SchemeALP {
		v := &rg.Vectors[local]
		return v.Filter(lo, hi, sel, scratch), true
	}
	v := &rg.RDVectors[local]
	rg.RD.DecodeVector(v, buf[:v.N])
	return filterFloats(buf[:v.N], lo, hi, sel), false
}

// FilterGatherVector is FilterVector fused with the gather: qualifying
// rows are written densely into out (room for the vector's n values),
// in position order, bit-exact with a decode-then-filter scan. Only
// qualifying rows are ever materialized as floats on the pushdown
// path. Like FilterVector, it records no pushdown counters itself —
// scan loops batch them via obs.ScanBatch.
func (c *Column) FilterGatherVector(i int, lo, hi float64, sel []uint64, out []float64, scratch []int64) (count int, pushdown bool) {
	if c.fullMatch(i, lo, hi) {
		// Every row qualifies: bulk-decode instead of per-bit gather,
		// which matters when the predicate is barely selective.
		n := c.DecodeVector(i, out, scratch)
		setAllSel(sel, n)
		return n, true
	}
	g := i / vector.RowGroupVectors
	local := i % vector.RowGroupVectors
	rg := &c.RowGroups[g]
	if rg.Scheme == SchemeALP {
		v := &rg.Vectors[local]
		count = v.Filter(lo, hi, sel, scratch)
		if count > 0 {
			// The gather — materializing qualifying rows as floats — is
			// the stage the paper's pushdown saves when selectivity is
			// low; its (sampled) histogram shows how that saving lands
			// per vector.
			if o := obs.Active(); o.SampleStage(obs.HistStageGather) {
				start := time.Now()
				v.GatherSelected(sel, scratch, out)
				o.Observe(obs.HistStageGather, time.Since(start).Nanoseconds())
			} else {
				v.GatherSelected(sel, scratch, out)
			}
		}
		return count, true
	}
	// ALP_rd fallback: decode into out, then compact qualifying rows
	// forward in place (the write index never passes the read index).
	v := &rg.RDVectors[local]
	rg.RD.DecodeVector(v, out[:v.N])
	count = filterFloats(out[:v.N], lo, hi, sel)
	w := 0
	for r := 0; r < v.N; r++ {
		if sel[r>>6]&(1<<uint(r&63)) != 0 {
			out[w] = out[r]
			w++
		}
	}
	return count, false
}

// filterFloats evaluates the predicate over decoded floats, filling
// sel and returning the match count (the fallback comparand of the
// pushdown kernel).
func filterFloats(vals []float64, lo, hi float64, sel []uint64) int {
	nw := fastlanes.SelWords(len(vals))
	for i := 0; i < nw; i++ {
		sel[i] = 0
	}
	count := 0
	for i, x := range vals {
		if x >= lo && x <= hi {
			sel[i>>6] |= 1 << uint(i&63)
			count++
		}
	}
	return count
}

// FilterAggResult carries the aggregates of a filtered scan. Min and
// Max are +Inf/-Inf when Count is zero.
type FilterAggResult struct {
	Sum   float64
	Count int
	Min   float64
	Max   float64
	// Touched is the number of vectors whose payload was examined
	// (pushdown-scanned or decoded); zone-map-skipped vectors are not
	// counted.
	Touched int
}

// AggRange computes SUM/COUNT/MIN/MAX over the values in [lo, hi],
// combining zone-map vector skipping with encoded-domain predicate
// pushdown: vectors the zone map cannot rule out are filtered by the
// fused unpack+compare kernel (decimal scheme) or decode-then-filter
// (ALP_rd), and only qualifying rows are materialized and folded. The
// fold visits rows in position order, so Sum is bit-identical to a
// naive decode-then-filter aggregate.
func (c *Column) AggRange(lo, hi float64) FilterAggResult {
	o := obs.Active()
	o.Add(obs.RangeScans, 1)
	res := FilterAggResult{Min: math.Inf(1), Max: math.Inf(-1)}
	var sel [SelWords]uint64
	scratch := make([]int64, vector.Size)
	out := make([]float64, vector.Size)
	skipped := 0
	var batch obs.ScanBatch
	for i := 0; i < c.NumVectors(); i++ {
		if c.Zones != nil && !c.Zones.MayContain(i, lo, hi) {
			skipped++
			continue
		}
		n, pd := c.FilterGatherVector(i, lo, hi, sel[:], out, scratch)
		batch.Vector(n, pd)
		res.Touched++
		foldAgg(&res, out[:n])
	}
	o.Add(obs.VectorsSkipped, int64(skipped))
	o.FlushScanBatch(&batch)
	return res
}

// foldAgg accumulates the gathered qualifying rows into res.
func foldAgg(res *FilterAggResult, vals []float64) {
	for _, v := range vals {
		res.Sum += v
		if v < res.Min {
			res.Min = v
		}
		if v > res.Max {
			res.Max = v
		}
	}
	res.Count += len(vals)
}
