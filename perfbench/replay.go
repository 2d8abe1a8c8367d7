package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"github.com/goalp/alp"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/fastlanes"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/vector"
)

// quantiles are sorted sample points of a column, used to draw range
// predicates of a wanted selectivity.
type quantiles []float64

// sampleQuantiles sorts a seeded sample of v (at most 65536 values).
func sampleQuantiles(v []float64, rng *rand.Rand) quantiles {
	n := min(len(v), 1<<16)
	q := make(quantiles, n)
	for i := range q {
		q[i] = v[rng.Intn(len(v))]
	}
	sort.Float64s(q)
	return q
}

// pickRange draws a closed range [lo, hi] covering about sel of the
// column. Runs of duplicates can make a range cover far more; such
// draws are retried so the selectivity stays near sel.
func (q quantiles) pickRange(sel float64, rng *rand.Rand) (lo, hi float64) {
	w := max(1, int(sel*float64(len(q))))
	for try := 0; try < 16; try++ {
		i := rng.Intn(max(1, len(q)-w))
		lo, hi = q[i], q[min(len(q)-1, i+w)]
		first := sort.SearchFloat64s(q, lo)
		last := sort.Search(len(q), func(k int) bool { return q[k] > hi })
		if float64(last-first) <= 2*float64(w)+2 {
			break
		}
	}
	return lo, hi
}

// logUniform maps u in [0, 1) onto [lo, hi] uniformly in log space.
func logUniform(u, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}

// replayQuery is one served request replayed against the layers below
// the handler: a range predicate on a column, and whether the request
// was a scan.
type replayQuery struct {
	col    int
	lo, hi float64
	scan   bool
	parent spanRef // the request's client span (zero outside a served run)
}

// replayLayers runs each query against the layers below the handler on
// the same column and predicate: the fused filter kernel
// (Column.FilterVector on every vector), the pushdown operator
// (Relation.FilterAgg), zone-mapped Column.AggRange, and for scans the
// ALPS stream build and decode.
func replayLayers(rep *Report, tr *Tracer, cols []*format.Column, qs []replayQuery) {
	rels := make([]*engine.Relation, len(cols))
	for i, c := range cols {
		rels[i] = engine.BuildALPFromColumn(fmt.Sprint(i), c)
	}
	sel := make([]uint64, fastlanes.SelWords(vector.Size))
	buf := make([]float64, vector.Size)
	ints := make([]int64, vector.Size)
	var filterUs, aggUs []float64
	var touched, vectors float64
	var streamBytes, rows, decodeNs float64
	var pdVec, pdFall int64
	for _, q := range qs {
		c := cols[q.col]
		op, parent := q.parent.op, q.parent.id
		if op == 0 {
			op = tr.NewID()
		}
		s := tr.Time("replay.fastlanes.filter", op, parent, func() {
			for i := 0; i < c.NumVectors(); i++ {
				c.FilterVector(i, q.lo, q.hi, sel, buf, ints)
			}
		})
		filterUs = append(filterUs, float64(s.Dur())/1e3/float64(c.NumVectors()))
		st := alp.ReadStats()
		s = tr.Time("replay.engine.filter_agg", op, parent, func() { rels[q.col].FilterAgg(1, engine.Between(q.lo, q.hi)) })
		aggUs = append(aggUs, float64(s.Dur())/1e3)
		end := alp.ReadStats()
		pdVec += end.PushdownVectors - st.PushdownVectors
		pdFall += end.PushdownFallbacks - st.PushdownFallbacks
		var res format.FilterAggResult
		tr.Time("replay.format.agg_range", op, parent, func() { res = c.AggRange(q.lo, q.hi) })
		touched += float64(res.Touched)
		vectors += float64(c.NumVectors())
		if !q.scan {
			continue
		}
		var stream []byte
		var n int
		tr.Time("replay.format.build_scan_stream", op, parent, func() { stream, n = format.BuildScanStream(c, q.lo, q.hi) })
		s = tr.Time("replay.format.scan_decode", op, parent, func() {
			d, err := format.NewScanDecoder(stream)
			if err != nil {
				rep.fail("replay scan stream: %v", err)
				return
			}
			got := 0
			for {
				v, err := d.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					rep.fail("replay scan stream: %v", err)
					return
				}
				got += len(v)
			}
			if got != n {
				rep.fail("replay scan stream: %d rows, want %d", got, n)
			}
		})
		streamBytes += float64(len(stream))
		rows += float64(n)
		decodeNs += float64(s.Dur())
	}
	f := Summarize(filterUs)
	a := Summarize(aggUs)
	rep.set("fastlanes.filter_us", f.P50, fmt.Sprintf("per vector, FilterVector, %d predicates", f.N))
	rep.set("engine.filter_agg_us", a.P50, fmt.Sprintf("FilterAgg(1, p), %d predicates", a.N))
	rep.set("engine.pushdown_ratio", float64(pdVec)/math.Max(1, float64(pdVec+pdFall)), fmt.Sprintf("%d pushdown, %d fallback vectors", pdVec, pdFall))
	rep.set("format.vectors_touched_ratio", touched/math.Max(1, vectors), "AggRange Touched / vectors")
	rep.set("format.scan_bytes_per_row", streamBytes/math.Max(1, rows), fmt.Sprintf("%.0f rows", rows))
	rep.set("format.scan_decode_mvs", rows/math.Max(1, decodeNs)*1e3, "NewScanDecoder/Next")
}
