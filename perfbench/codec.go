package main

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
)

// codecDatasets are codec-large's four columns, one per column kind:
// ALP decimal, zero-heavy decimal, ALP_rd and the float32 path.
var codecDatasets = []struct{ kind, name string }{
	{"decimal", "City-Temp"},
	{"sparse", "Gov/10"},
	{"rd", "POI-lat"},
	{"f32", "ML/weights-f32"},
}

// codecCol is one codec-large column and its oracle: the digest of the
// values and of the setup encode, and the uncompressed SUM.
type codecCol struct {
	kind, name string
	f64        []float64
	f32        []float32
	data       []byte
	col        *format.Column // f64 only: the column data decodes to
	rel        *engine.Relation
	valDigest  uint64
	dataDigest uint64
	sumBits    uint64
}

func (c *codecCol) n() int { return max(len(c.f64), len(c.f32)) }

var byteSeed = maphash.MakeSeed()

// codec operation kinds.
const (
	opEncode = iota
	opDecode
	opSum
	numCodecOps
)

var codecOpNames = [numCodecOps]string{"encode", "decode", "sum"}

// codecOp is one timed call with the digest of what it produced.
type codecOp struct {
	col, kind int
	ns        int64
	digest    uint64
}

// setupCodec generates the columns, encodes each once and builds the
// SUM relation over the encoded bytes. The caller then warms up.
func setupCodec(n int) ([]*codecCol, error) {
	cols := make([]*codecCol, 0, len(codecDatasets))
	for _, d := range codecDatasets {
		ds, ok := dataset.ByName(d.name)
		if !ok {
			return nil, fmt.Errorf("no dataset %q", d.name)
		}
		c := &codecCol{kind: d.kind, name: d.name}
		v := ds.Generate(n)
		if d.kind == "f32" {
			c.f32 = make([]float32, n)
			for i, x := range v {
				c.f32[i] = float32(x)
			}
			c.valDigest = digest32(c.f32)
			c.data = alp.Encode32(c.f32)
		} else {
			c.f64 = v
			c.valDigest = digest64(v)
			c.data = alp.Encode(v)
			col, err := format.Unmarshal(c.data)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.name, err)
			}
			c.col = col
			c.rel = engine.BuildALPFromColumn(d.name, col)
			c.sumBits = math.Float64bits(engine.BuildUncompressed(v).Sum(1))
		}
		c.dataDigest = maphash.Bytes(byteSeed, c.data)
		cols = append(cols, c)
	}
	return cols, nil
}

// runCodecOp times one call and digests its output outside the timing.
func runCodecOp(c *codecCol, kind int) (ns int64, digest uint64, err error) {
	switch kind {
	case opEncode:
		var b []byte
		t := time.Now()
		if c.f32 != nil {
			b = alp.Encode32(c.f32)
		} else {
			b = alp.Encode(c.f64)
		}
		ns = int64(time.Since(t))
		return ns, maphash.Bytes(byteSeed, b), nil
	case opDecode:
		if c.f32 != nil {
			t := time.Now()
			v, err := alp.Decode32(c.data)
			ns = int64(time.Since(t))
			return ns, digest32(v), err
		}
		t := time.Now()
		v, err := alp.Decode(c.data)
		ns = int64(time.Since(t))
		return ns, digest64(v), err
	default:
		t := time.Now()
		s := c.rel.Sum(1)
		ns = int64(time.Since(t))
		return ns, math.Float64bits(s), nil
	}
}

// want is the oracle's answer for an operation's digest.
func (c *codecCol) want(kind int) uint64 {
	switch kind {
	case opEncode:
		return c.dataDigest
	case opDecode:
		return c.valDigest
	}
	return c.sumBits
}

// roundOps is one round: every column through every operation it has,
// in an order drawn from the seed.
func roundOps(cols []*codecCol, rng *rand.Rand) [][2]int {
	var ops [][2]int
	for i, c := range cols {
		for k := 0; k < numCodecOps; k++ {
			if k == opSum && c.rel == nil {
				continue
			}
			ops = append(ops, [2]int{i, k})
		}
	}
	rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return ops
}

// codecWindow runs whole rounds, at least minRounds, until the window
// is spent and returns every operation. The tracer (nil when off) gets one span per call,
// parented to a span per round.
func codecWindow(cols []*codecCol, rng *rand.Rand, window time.Duration, minRounds int, tr *Tracer) ([]codecOp, error) {
	var ops []codecOp
	start := time.Now()
	var last time.Duration
	for rounds := 0; rounds < minRounds || time.Since(start)+last <= window; rounds++ {
		rs := time.Now()
		op := tr.NewID()
		round := Span{ID: tr.NewID(), Op: op, Name: "codec.round", Start: tr.Now()}
		for _, o := range roundOps(cols, rng) {
			c := cols[o[0]]
			s := Span{ID: tr.NewID(), Parent: round.ID, Op: op, Name: "codec." + codecOpNames[o[1]] + "." + c.kind, Start: tr.Now()}
			ns, d, err := runCodecOp(c, o[1])
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", codecOpNames[o[1]], c.name, err)
			}
			s.End = s.Start + ns
			tr.Record(s)
			ops = append(ops, codecOp{col: o[0], kind: o[1], ns: ns, digest: d})
		}
		round.End = tr.Now()
		tr.Record(round)
		last = time.Since(rs)
	}
	return ops, nil
}

// checkCodec compares every operation with the oracle.
func checkCodec(rep *Report, cols []*codecCol, ops []codecOp) {
	rep.Attempted += len(ops)
	for _, o := range ops {
		c := cols[o.col]
		if o.digest != c.want(o.kind) {
			rep.fail("%s %s: result differs from the oracle", codecOpNames[o.kind], c.name)
		}
	}
}

// passStats sums each round's calls of one kind into one pass (one
// operation over every column), summarizes the pass times in ms and
// returns the values of a pass over its median time, in MV/s.
func passStats(cols []*codecCol, ops []codecOp, kind int) (Summary, float64) {
	perRound, values := 0, 0
	for _, c := range cols {
		if kind != opSum || c.rel != nil {
			perRound++
			values += c.n()
		}
	}
	var passes []float64
	var acc int64
	k := 0
	for _, o := range ops {
		if o.kind != kind {
			continue
		}
		acc += o.ns
		if k++; k%perRound == 0 {
			passes = append(passes, float64(acc)/1e6)
			acc = 0
		}
	}
	s := Summarize(passes)
	return s, float64(values) / s.P50 / 1e3
}

func runCodec(cfg Config, t0 time.Time) (*Report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Trace {
		alp.EnableStats()
		defer alp.DisableStats()
	}
	var cols []*codecCol
	var setups []float64
	setups0 := t0
	for i := 0; i < max(1, cfg.Setups) && (i == 0 || !cfg.Trace); i++ {
		cols = nil
		runtime.GC()
		debug.FreeOSMemory()
		if i > 0 {
			setups0 = time.Now()
		}
		var err error
		if cols, err = setupCodec(cfg.CodecN); err != nil {
			return nil, err
		}
		// Warm-up: one untimed round fills caches and grows the heap.
		warm, err := codecWindow(cols, rng, 0, 1, nil)
		if err != nil {
			return nil, err
		}
		checkCodec(rep, cols, warm)
		setups = append(setups, time.Since(setups0).Seconds())
	}
	rep.infof("columns %d x %d values:%s", len(cols), cfg.CodecN, kindsList(cols))
	rep.infof("setup_s runs %v", setups)
	if cfg.Trace {
		return traceCodec(cfg, rep, cols, rng)
	}
	window := time.Duration(cfg.Seconds * float64(time.Second))
	ops, err := codecWindow(cols, rng, window, 2, nil)
	if err != nil {
		return nil, err
	}
	checkCodec(rep, cols, ops)
	codecEndToEnd(rep, cols, ops)
	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mib", rss, "VmHWM")
	return rep, nil
}

func kindsList(cols []*codecCol) string {
	s := ""
	for _, c := range cols {
		s += fmt.Sprintf(" %s=%s", c.kind, c.name)
	}
	return s
}

// codecEndToEnd fills the end-to-end metrics of codec-large. A pass is
// one call of a kind over every column: ingest = Encode, scan = Decode,
// agg = SUM.
func codecEndToEnd(rep *Report, cols []*codecCol, ops []codecOp) {
	enc, encMVs := passStats(cols, ops, opEncode)
	dec, decMVs := passStats(cols, ops, opDecode)
	sum, sumMVs := passStats(cols, ops, opSum)
	rep.set("encode_mvs", encMVs, fmt.Sprintf("alp.Encode/Encode32, values / p50 pass, %d passes", enc.N))
	rep.set("decode_mvs", decMVs, fmt.Sprintf("alp.Decode/Decode32, values / p50 pass, %d passes", dec.N))
	rep.set("sum_mvs", sumMVs, fmt.Sprintf("engine Sum(1), values / p50 pass, %d passes", sum.N))
	var bits, values float64
	for _, c := range cols {
		bits += float64(len(c.data) * 8)
		values += float64(c.n())
	}
	rep.set("bits_per_value", bits/values, "")
	note := func(s Summary) string { return fmt.Sprintf("n=%d beyond_p99=%d", s.N, s.Beyond) }
	rep.set("agg_p50_ms", sum.P50, "SUM pass "+note(sum))
	rep.set("agg_p99_ms", sum.P99, "SUM pass "+note(sum))
	rep.set("scan_p50_ms", dec.P50, "Decode pass "+note(dec))
	rep.set("scan_p99_ms", dec.P99, "Decode pass "+note(dec))
	rep.set("ingest_p50_ms", enc.P50, "Encode pass "+note(enc))
	perRound := len(roundOps(cols, rand.New(rand.NewSource(0))))
	rep.set("slo_qps", float64(perRound)/(enc.P50+dec.P50+sum.P50)*1e3, "closed loop: column operations per round / p50 round")
}
