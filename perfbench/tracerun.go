package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/format"
)

// The traced run replays the workload twice at the same settings: a
// first half untraced (the baseline and the runtime and generator
// numbers) and a second half with spans on. Layer probes then run on
// the workload's columns, every span goes to a file, and the report
// gives per-layer metrics, the self time of every span name and the
// tracing overhead (traced against untraced latency).

// memDelta is the runtime's allocation and GC work over a window.
type memDelta struct{ before, after runtime.MemStats }

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }
func (m *memDelta) stop()  { runtime.ReadMemStats(&m.after) }

func (m *memDelta) report(rep *Report, ops int) {
	n := float64(max(ops, 1))
	rep.set("runtime.gc_cycles", float64(m.after.NumGC-m.before.NumGC), "untraced half")
	rep.set("runtime.gc_pause_ms", float64(m.after.PauseTotalNs-m.before.PauseTotalNs)/1e6, "untraced half")
	rep.set("runtime.alloc_bytes_per_op", float64(m.after.TotalAlloc-m.before.TotalAlloc)/n, fmt.Sprintf("%d operations", ops))
	rep.set("runtime.allocs_per_op", float64(m.after.Mallocs-m.before.Mallocs)/n, "")
}

// statsDelta is the codec counters over a window.
func statsDelta(rep *Report, before, after alp.Stats) {
	vecs := float64(max(after.VectorsEncoded-before.VectorsEncoded, 1))
	rep.set("alpenc.exceptions_per_vector", float64(after.EncodeExceptions-before.EncodeExceptions)/vecs,
		fmt.Sprintf("%d vectors encoded", after.VectorsEncoded-before.VectorsEncoded))
	rep.set("alpenc.second_stage_tried_per_vector", float64(after.SecondStageTried-before.SecondStageTried)/vecs, "")
	rep.set("pipeline.stalls", float64(after.PipelineStalls-before.PipelineStalls), "")
}

// noServedLayers marks the serving-path metrics of a workload that has
// no server, client or coordinator on its path.
func noServedLayers(rep *Report, why string) {
	for _, s := range perLayer {
		for _, layer := range []string{"server.", "client.", "cluster.", "generator."} {
			if strings.HasPrefix(s.Name, layer) {
				rep.set(s.Name, 0, why)
			}
		}
	}
}

// finishTrace writes the span file and reports self times.
func finishTrace(rep *Report, cfg Config, tr *Tracer) error {
	spans := tr.Spans()
	path := filepath.Join(cfg.SpanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
	if err := WriteSpans(path, spans); err != nil {
		return err
	}
	rep.infof("span file %s (%d spans)", path, len(spans))
	by := SelfTimeByName(spans)
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := by[n]
		rep.infof("self_us %-36s p50 %10.1f p99 %10.1f n=%d", n, s.P50, s.P99, s.N)
	}
	return nil
}

func traceCodec(cfg Config, rep *Report, cols []*codecCol, rng *rand.Rand) (*Report, error) {
	half := time.Duration(cfg.Seconds / 2 * float64(time.Second))
	var mem memDelta
	mem.start()
	base, err := codecWindow(cols, rng, half, 2, nil)
	mem.stop()
	if err != nil {
		return nil, err
	}
	checkCodec(rep, cols, base)
	mem.report(rep, len(base))

	tr := NewTracer()
	before := alp.ReadStats()
	traced, err := codecWindow(cols, rng, half, 2, tr)
	if err != nil {
		return nil, err
	}
	statsDelta(rep, before, alp.ReadStats())
	checkCodec(rep, cols, traced)
	b, _ := passStats(cols, base, opDecode)
	t, _ := passStats(cols, traced, opDecode)
	rep.set("trace.overhead_pct", (t.P50/b.P50-1)*100, fmt.Sprintf("Decode pass p50 traced %.2f ms vs untraced %.2f ms", t.P50, b.P50))

	var lc []ladderCol
	var fcols []*format.Column
	for _, c := range cols {
		l := ladderCol{kind: c.kind, f64: c.f64, f32: c.f32, col: c.col}
		if c.f32 != nil {
			col32, err := format.Unmarshal32(c.data)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			l.col32 = col32
		} else {
			fcols = append(fcols, c.col)
		}
		lc = append(lc, l)
	}
	ladder(rep, tr, lc, min(cfg.CodecN, 16*alp.RowGroupSize))

	// The codec columns have no served requests; replay predicates
	// drawn like the served mix so the filter layers are measured on
	// the same columns.
	var qs []replayQuery
	for i := 0; i < 24; i++ {
		k := rng.Intn(len(fcols))
		qt := sampleQuantiles(cols[k].f64, rng)
		scan := i%4 == 0
		u := rng.Float64()
		sel := logUniform(u, 0.001, 0.5)
		if scan {
			sel = logUniform(u, 0.001, 0.1)
		}
		lo, hi := qt.pickRange(sel, rng)
		qs = append(qs, replayQuery{col: k, lo: lo, hi: hi, scan: scan})
	}
	replayLayers(rep, tr, fcols, qs)
	noServedLayers(rep, "no server on the codec-large path")
	return rep, finishTrace(rep, cfg, tr)
}

func (e *servedEnv) traceServed(rep *Report, o *oracle, last map[int]*result, rng *rand.Rand, half time.Duration, clustered bool) (*Report, error) {
	cfg := e.cfg
	var mem memDelta
	qs, due := schedule(e.mix, cfg.RateQPS, half)
	mem.start()
	base := e.drive(nil, qs, due, 0)
	mem.stop()
	e.check(rep, o, base.results, last)
	mem.report(rep, len(base.results))
	late := Summarize(lateMs(base.results))
	rep.set("generator.late_p99_ms", late.P99, fmt.Sprintf("n=%d", late.N))
	rep.set("generator.max_outstanding", float64(base.maxOutstanding), "")
	if backlogGrew(base, len(qs)) {
		rep.Invalid = fmt.Sprintf("backlog grew at the fixed rate %g req/s", cfg.RateQPS)
	}

	tr := NewTracer()
	e.trace.Store(tr)
	before := alp.ReadStats()
	qs, due = schedule(e.mix, cfg.RateQPS, half)
	traced := e.drive(tr, qs, due, 0)
	after := alp.ReadStats()
	e.trace.Store(nil)
	e.check(rep, o, traced.results, last)
	statsDelta(rep, before, after)
	req := float64(max(after.ServerRequests-before.ServerRequests, 1))
	rep.set("server.bytes_out_per_request", float64(after.ServerBytesOut-before.ServerBytesOut)/req, "")
	rep.set("server.shed_ratio", float64(after.ServerSheds-before.ServerSheds)/req, "")
	b := kindLatencies(base.results, qAgg, qCount)
	t := kindLatencies(traced.results, qAgg, qCount)
	rep.set("trace.overhead_pct", (t.P50/b.P50-1)*100, fmt.Sprintf("agg p50 traced %.3f ms vs untraced %.3f ms", t.P50, b.P50))
	cs := e.cl.Stats()
	rep.set("client.retries", float64(cs.Retries), "whole run")
	rep.set("client.transport_errors", float64(cs.TransportErrors), "whole run")
	rep.set("client.shed", float64(cs.Shed), "whole run")
	servedSpanMetrics(rep, tr.Spans(), clustered)

	// Replay sampled reads below the handler, as children of their
	// client spans.
	var rq []replayQuery
	var fcols []*format.Column
	for _, c := range e.cols {
		fcols = append(fcols, c.col)
	}
	for i := range traced.results {
		r := &traced.results[i]
		if r.q.kind != qIngest && len(rq) < cfg.Replays {
			rq = append(rq, replayQuery{col: r.q.col, lo: r.q.lo, hi: r.q.hi, scan: r.q.kind == qScan, parent: r.span})
		}
	}
	replayLayers(rep, tr, fcols, rq)

	byName := map[string]*servedCol{}
	for _, c := range e.cols {
		byName[c.dataset] = c
	}
	f32ds, _ := dataset.ByName("ML/weights-f32")
	w := f32ds.Generate(cfg.ServedN)
	f32 := make([]float32, len(w))
	for i, x := range w {
		f32[i] = float32(x)
	}
	lc := []ladderCol{
		{kind: "decimal", f64: byName["City-Temp"].values, col: byName["City-Temp"].col},
		{kind: "sparse", f64: byName["Gov/10"].values, col: byName["Gov/10"].col},
		{kind: "rd", f64: byName["POI-lat"].values, col: byName["POI-lat"].col},
		{kind: "f32", f32: f32, col32: format.EncodeColumn32(f32)},
	}
	ladder(rep, tr, lc, min(cfg.ServedN, 16*alp.RowGroupSize))
	e.checkIngests(rep, last)
	return rep, finishTrace(rep, cfg, tr)
}

// servedSpanMetrics reads the handler, wire and coordinator numbers
// off the span tree of the traced half.
func servedSpanMetrics(rep *Report, spans []Span, clustered bool) {
	byID := make(map[uint64]*Span, len(spans))
	kids := map[uint64][]*Span{}
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := SelfTimes(spans)
	durs := map[string][]float64{}
	var wireAgg, wireScan, coordSelf, gaps []float64
	fanout, coordN := 0, 0
	front := "server."
	if clustered {
		front = "cluster."
	}
	for i := range spans {
		s := &spans[i]
		durs[s.Name] = append(durs[s.Name], float64(s.Dur())/1e3)
		switch s.Name {
		case "client.agg", "client.scan":
			for _, k := range kids[s.ID] {
				if k.Name == front+s.Name[len("client."):] {
					w := float64(s.Dur()-k.Dur()) / 1e3
					if s.Name == "client.agg" {
						wireAgg = append(wireAgg, w)
					} else {
						wireScan = append(wireScan, w)
					}
				}
			}
		case "cluster.agg":
			coordN++
			coordSelf = append(coordSelf, float64(self[s.ID])/1e3)
			lo, hi := int64(math.MaxInt64), int64(0)
			rts := 0
			for _, k := range kids[s.ID] {
				if k.Name == "backend.rt" {
					rts++
					lo, hi = min(lo, k.Dur()), max(hi, k.Dur())
				}
			}
			fanout += rts
			if rts >= 2 {
				gaps = append(gaps, float64(hi-lo)/1e3)
			}
		}
	}
	p50 := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		return median(v)
	}
	n := func(v []float64) string { return fmt.Sprintf("n=%d", len(v)) }
	rep.set("server.handler_us.agg", p50(durs["server.agg"]), n(durs["server.agg"]))
	rep.set("server.handler_us.scan", p50(durs["server.scan"]), n(durs["server.scan"]))
	rep.set("server.handler_us.ingest", p50(durs["server.ingest"]), n(durs["server.ingest"]))
	rep.set("server.wire_us.agg", p50(wireAgg), "client span - "+front+"agg span, "+n(wireAgg))
	rep.set("server.wire_us.scan", p50(wireScan), "client span - "+front+"scan span, "+n(wireScan))
	why := "no coordinator on the serve-mix path"
	if clustered {
		why = n(coordSelf)
	}
	rep.set("cluster.handler_us.agg", p50(durs["cluster.agg"]), why)
	rep.set("cluster.self_us.agg", p50(coordSelf), why)
	rep.set("cluster.fanout_per_query", float64(fanout)/math.Max(1, float64(coordN)), why)
	rep.set("cluster.straggler_gap_us", p50(gaps), why)
}
