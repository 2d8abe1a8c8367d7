package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/internal/alpenc"
	"github.com/goalp/alp/internal/bitpack"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/vector"
)

// ladderCol is one column of the layer ladder: its values and the
// encoded column they came from.
type ladderCol struct {
	kind  string
	f64   []float64
	f32   []float32
	col   *format.Column
	col32 *format.Column32
}

// ladderReps is how often each rung is timed; the rung reports the
// median.
const ladderReps = 3

// rung times fn ladderReps times (one span each) and returns values
// per microsecond (MV/s) at the median time.
func rung(tr *Tracer, name string, values int, fn func()) float64 {
	op := tr.NewID()
	times := make([]float64, ladderReps)
	for i := range times {
		t := time.Now()
		tr.Time("ladder."+name, op, 0, fn)
		times[i] = float64(time.Since(t))
	}
	return float64(values) / median(times) * 1e3
}

// alpVectors calls fn for every decimal-scheme vector of the column
// whose values start below limit, with the vector's values.
func alpVectors(c ladderCol, limit int, fn func(v *alpenc.Vector, src []float64)) {
	for g := range c.col.RowGroups {
		rg := &c.col.RowGroups[g]
		if rg.Scheme != format.SchemeALP {
			continue
		}
		for j := range rg.Vectors {
			lo := rg.Start + j*vector.Size
			if lo >= limit {
				return
			}
			fn(&rg.Vectors[j], c.f64[lo:lo+rg.Vectors[j].N])
		}
	}
}

// rdVectors is alpVectors for the ALP_rd row-groups.
func rdVectors(c ladderCol, limit int, fn func(rg *format.RowGroup, j int, src []float64)) {
	for g := range c.col.RowGroups {
		rg := &c.col.RowGroups[g]
		if rg.Scheme != format.SchemeRD {
			continue
		}
		for j := range rg.RDVectors {
			lo := rg.Start + j*vector.Size
			if lo >= limit {
				return
			}
			fn(rg, j, c.f64[lo:lo+rg.RDVectors[j].N])
		}
	}
}

// ladder times each layer's function alone on the same vectors, bottom
// up: bit-unpack, FFOR, ALP/ALP_rd vector decode, column access, engine
// SUM. The ratio of adjacent rungs is a layer's cost. Encode rungs use
// the first encodeN values of each column.
func ladder(rep *Report, tr *Tracer, cols []ladderCol, encodeN int) {
	ints := make([]int64, vector.Size)
	buf := make([]float64, vector.Size)
	buf32 := make([]float32, vector.Size)
	var f64 []ladderCol
	alpValues, rdValues, alpEnc, rdEnc := 0, 0, 0, 0
	for _, c := range cols {
		if c.col == nil {
			continue
		}
		f64 = append(f64, c)
		alpVectors(c, c.col.N, func(v *alpenc.Vector, _ []float64) { alpValues += v.N })
		rdVectors(c, c.col.N, func(rg *format.RowGroup, j int, _ []float64) { rdValues += rg.RDVectors[j].N })
		alpVectors(c, encodeN, func(v *alpenc.Vector, _ []float64) { alpEnc += v.N })
		rdVectors(c, encodeN, func(rg *format.RowGroup, j int, _ []float64) { rdEnc += rg.RDVectors[j].N })
	}
	all := func(fn func(v *alpenc.Vector, src []float64)) func() {
		return func() {
			for _, c := range f64 {
				alpVectors(c, c.col.N, fn)
			}
		}
	}
	u64 := make([]uint64, vector.Size)
	rep.set("bitpack.unpack_mvs", rung(tr, "bitpack.unpack", alpValues, all(func(v *alpenc.Vector, _ []float64) {
		bitpack.Unpack(u64[:v.N], v.Ints.Words, v.Ints.Width, uint64(v.Ints.Base))
	})), fmt.Sprintf("%d values at their packed widths", alpValues))
	rep.set("fastlanes.ffor_decode_mvs", rung(tr, "fastlanes.ffor_decode", alpValues, all(func(v *alpenc.Vector, _ []float64) {
		v.Ints.Decode(ints[:v.N])
	})), "")
	rep.set("alpenc.decode_mvs", rung(tr, "alpenc.decode", alpValues, all(func(v *alpenc.Vector, _ []float64) {
		v.Decode(buf[:v.N], ints)
	})), "")
	rep.set("alpenc.encode_mvs", rung(tr, "alpenc.encode", alpEnc, func() {
		for _, c := range f64 {
			alpVectors(c, encodeN, func(v *alpenc.Vector, src []float64) {
				alpenc.EncodeVector(src, alpenc.Combo{E: v.E, F: v.F}, ints)
			})
		}
	}), fmt.Sprintf("first %d values per column", encodeN))
	rep.set("alprd.decode_mvs", rung(tr, "alprd.decode", rdValues, func() {
		for _, c := range f64 {
			rdVectors(c, c.col.N, func(rg *format.RowGroup, j int, _ []float64) {
				rg.RD.DecodeVector(&rg.RDVectors[j], buf[:rg.RDVectors[j].N])
			})
		}
	}), fmt.Sprintf("%d values", rdValues))
	rep.set("alprd.encode_mvs", rung(tr, "alprd.encode", rdEnc, func() {
		for _, c := range f64 {
			rdVectors(c, encodeN, func(rg *format.RowGroup, _ int, src []float64) { rg.RD.EncodeVector(src) })
		}
	}), "")

	for _, c := range cols {
		n := max(len(c.f64), len(c.f32))
		en := min(n, encodeN)
		if c.col32 != nil {
			rep.set("format.decode_vector_mvs."+c.kind, rung(tr, "format.decode_vector."+c.kind, n, func() {
				for i := 0; i < c.col32.NumVectors(); i++ {
					c.col32.DecodeVector(i, buf32, ints)
				}
			}), "")
			rep.set("format.decode_alloc_mvs."+c.kind, rung(tr, "format.decode_alloc."+c.kind, n, func() { c.col32.Decode() }), "")
			rep.set("format.encode_mvs."+c.kind, rung(tr, "format.encode."+c.kind, en, func() { format.EncodeColumn32(c.f32[:en]) }), "")
			continue
		}
		rep.set("format.decode_vector_mvs."+c.kind, rung(tr, "format.decode_vector."+c.kind, n, func() {
			for i := 0; i < c.col.NumVectors(); i++ {
				c.col.DecodeVector(i, buf, ints)
			}
		}), "")
		rep.set("format.decode_alloc_mvs."+c.kind, rung(tr, "format.decode_alloc."+c.kind, n, func() { c.col.Decode() }), "")
		rep.set("format.encode_mvs."+c.kind, rung(tr, "format.encode."+c.kind, en, func() { format.EncodeColumn(c.f64[:en]) }), "")
	}

	sumValues := 0
	var rels, raws []*engine.Relation
	for _, c := range f64 {
		sumValues += len(c.f64)
		rels = append(rels, engine.BuildALPFromColumn(c.kind, c.col))
		raws = append(raws, engine.BuildUncompressed(c.f64))
	}
	rep.set("engine.sum_mvs", rung(tr, "engine.sum", sumValues, func() {
		for _, r := range rels {
			r.Sum(1)
		}
	}), "Relation.Sum(1) on ALP")
	rep.set("engine.raw_sum_mvs", rung(tr, "engine.raw_sum", sumValues, func() {
		for _, r := range raws {
			r.Sum(1)
		}
	}), "Relation.Sum(1) uncompressed")

	base := f64[0].f64[:min(len(f64[0].f64), encodeN)]
	one := rung(tr, "pipeline.encode_1", len(base), func() { alp.EncodeParallel(base, 1) })
	par := rung(tr, "pipeline.encode_n", len(base), func() { alp.EncodeParallel(base, runtime.NumCPU()) })
	rep.set("pipeline.encode_speedup", par/one, fmt.Sprintf("EncodeParallel at %d workers / at 1, %s", runtime.NumCPU(), f64[0].kind))
}
