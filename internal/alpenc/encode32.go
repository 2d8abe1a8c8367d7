package alpenc

import (
	"math"
	"sort"

	"github.com/goalp/alp/internal/bitpack"
	"github.com/goalp/alp/internal/fastlanes"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/vector"
)

// Float32 ALP (paper §4.4): the same decimal encoding with the float32
// rounding sweet spot (2^22 + 2^23) and a reduced exponent range. A
// float32 mantissa holds 24 bits, so the scaled integers must stay
// below 2^22 for the fast-rounding trick.

// MaxExponent32 is the largest exponent considered for float32.
const MaxExponent32 = 10

const sweet32 = float32(1<<22 + 1<<23)

const encLimit32 = float32(1 << 22)

// ExceptionBits32 is the storage cost of one float32 exception: the raw
// 32-bit value plus a 16-bit position.
const ExceptionBits32 = 32 + 16

// rdThreshold32 is the estimated bits/value beyond which a float32
// row-group switches to ALP_rd-32. Float32 decimal encoding carries a
// higher exception rate than float64 (the inverse factors have fewer
// guard digits), so the cutover sits at 7/8 of the raw width rather
// than 3/4.
const rdThreshold32 = 28

// F10f holds exact float32 representations of 10^i for small i.
var F10f = [MaxExponent32 + 1]float32{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
}

// IF10f holds the float32 closest to 10^-i.
var IF10f = [MaxExponent32 + 1]float32{
	1e0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10,
}

// fastRound32 rounds x to the nearest integer using the float32 sweet
// spot. The caller must ensure |x| < encLimit32.
func fastRound32(x float32) int64 {
	return int64(x + sweet32 - sweet32)
}

// Vector32 is one ALP-encoded vector of float32 values.
type Vector32 struct {
	E, F    uint8
	N       int
	Ints    fastlanes.FFOR
	ExcPos  []uint16
	ExcVals []float32
}

// EncodeVector32 is the float32 counterpart of EncodeVector.
func EncodeVector32(src []float32, c Combo, scratch []int64) Vector32 {
	n := len(src)
	enc := scratch
	if enc == nil {
		enc = make([]int64, n)
	}
	enc = enc[:n]
	fe, ff := F10f[c.E], IF10f[c.F]
	de, df := IF10f[c.E], F10f[c.F]

	v := Vector32{E: c.E, F: c.F, N: n}
	excIdx := make([]uint16, 0, 8)
	for i, x := range src {
		scaled := x * fe * ff
		var d int64
		if scaled >= -encLimit32 && scaled <= encLimit32 {
			d = fastRound32(scaled)
		}
		enc[i] = d
		back := float32(d) * df * de
		if math.Float32bits(back) != math.Float32bits(x) {
			excIdx = append(excIdx, uint16(i))
		}
	}
	if len(excIdx) > 0 {
		first := findFirstEncoded(enc, excIdx)
		v.ExcPos = excIdx
		v.ExcVals = make([]float32, len(excIdx))
		for k, pos := range excIdx {
			v.ExcVals[k] = src[pos]
			enc[pos] = first
		}
	}
	v.Ints = fastlanes.EncodeFFOR(enc)
	return v
}

// Decode decompresses the vector into dst (len dst == v.N).
func (v *Vector32) Decode(dst []float32, scratch []int64) {
	ints := scratch
	if ints == nil {
		ints = make([]int64, v.N)
	}
	ints = ints[:v.N]
	v.Ints.Decode(ints)
	df, de := F10f[v.F], IF10f[v.E]
	for i, d := range ints {
		dst[i] = float32(d) * df * de
	}
	for k, pos := range v.ExcPos {
		dst[pos] = v.ExcVals[k]
	}
}

// Exceptions returns the number of exceptions in the vector.
func (v *Vector32) Exceptions() int { return len(v.ExcPos) }

// SizeBits returns the exact compressed size in bits.
func (v *Vector32) SizeBits() int {
	return v.Ints.SizeBits() + len(v.ExcPos)*ExceptionBits32 + 16 + 16
}

// comboCost32 is the float32 counterpart of comboCost.
func comboCost32(sample []float32, c Combo) (bits, exceptions int) {
	fe, ff := F10f[c.E], IF10f[c.F]
	df, de := F10f[c.F], IF10f[c.E]
	min, max := int64(math.MaxInt64), int64(math.MinInt64)
	nonExc := 0
	for _, x := range sample {
		scaled := x * fe * ff
		if !(scaled >= -encLimit32 && scaled <= encLimit32) {
			exceptions++
			continue
		}
		d := fastRound32(scaled)
		if math.Float32bits(float32(d)*df*de) != math.Float32bits(x) {
			exceptions++
			continue
		}
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		nonExc++
	}
	var w uint
	if nonExc > 0 {
		w = bitpack.Width(uint64(max) - uint64(min))
	}
	return len(sample)*int(w) + exceptions*ExceptionBits32, exceptions
}

// FindBest32 exhaustively searches the float32 (e,f) space.
func FindBest32(sample []float32) (Combo, int) {
	best := Combo{}
	bestCost := math.MaxInt
	for e := MaxExponent32; e >= 0; e-- {
		for f := e; f >= 0; f-- {
			c := Combo{E: uint8(e), F: uint8(f)}
			cost, _ := comboCost32(sample, c)
			if cost < bestCost {
				bestCost = cost
				best = c
			}
		}
	}
	return best, bestCost
}

func sampleEquidistant32(src []float32, count int) []float32 {
	if len(src) <= count {
		return src
	}
	out := make([]float32, count)
	step := len(src) / count
	for i := range out {
		out[i] = src[i*step]
	}
	return out
}

// SampleRowGroup32 is the float32 counterpart of SampleRowGroup: a row
// group estimated above rdThreshold32 bits/value switches to ALP_rd-32.
func SampleRowGroup32(values []float32) Decision {
	nv := vector.VectorsIn(len(values))
	nSample := SampleVectors
	if nv < nSample {
		nSample = nv
	}
	step := 1
	if nv > nSample {
		step = nv / nSample
	}
	type cand struct {
		c     Combo
		count int
	}
	counts := make(map[Combo]int, nSample)
	totalCost, totalVals := 0, 0
	for i := 0; i < nSample; i++ {
		lo, hi := vector.Bounds(i*step, len(values))
		sample := sampleEquidistant32(values[lo:hi], SampleValuesPerVec)
		best, cost := FindBest32(sample)
		counts[best]++
		totalCost += cost
		totalVals += len(sample)
	}
	cands := make([]cand, 0, len(counts))
	for c, n := range counts {
		cands = append(cands, cand{c, n})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].count != cands[j].count {
			return cands[i].count > cands[j].count
		}
		if cands[i].c.E != cands[j].c.E {
			return cands[i].c.E > cands[j].c.E
		}
		return cands[i].c.F > cands[j].c.F
	})
	if len(cands) > MaxCombos {
		cands = cands[:MaxCombos]
	}
	d := Decision{Combos: make([]Combo, len(cands))}
	for i, c := range cands {
		d.Combos[i] = c.c
	}
	if totalVals > 0 {
		d.EstBitsPerValue = float64(totalCost) / float64(totalVals)
	}
	d.UseRD = d.EstBitsPerValue >= rdThreshold32
	return d
}

// ChooseForVector32 is the float32 counterpart of ChooseForVector.
func ChooseForVector32(vec []float32, combos []Combo) (Combo, int) {
	o := obs.Active()
	if len(combos) == 1 {
		o.Add(obs.SecondStageSkips, 1)
		return combos[0], 0
	}
	sample := sampleEquidistant32(vec, SecondStageSamples)
	best := combos[0]
	bestCost, _ := comboCost32(sample, best)
	tried := 1
	worseStreak := 0
	early := false
	for _, c := range combos[1:] {
		cost, _ := comboCost32(sample, c)
		tried++
		if cost < bestCost {
			bestCost = cost
			best = c
			worseStreak = 0
		} else {
			worseStreak++
			if worseStreak >= 2 {
				early = tried < len(combos)
				break
			}
		}
	}
	o.SecondStage(tried, early)
	return best, tried
}
