// Package obs is the codec-wide observability substrate: a
// zero-dependency set of atomic counters that the encoder, the format
// layer and the scan engine report into, so every adaptive decision ALP
// makes at runtime — scheme selection per row-group, second-stage
// sampling effort per vector, exception patching, zone-map skipping,
// morsel claiming — is visible without a debugger.
//
// The design contract is the nil-safe collector pattern: every method
// on *Collector is a no-op when the receiver is nil, so instrumented
// hot paths pay exactly one predictable, well-predicted branch when
// metrics are disabled. Call sites never guard with `if enabled`; they
// just call methods on a possibly-nil pointer:
//
//	o := obs.Active()          // nil when collection is disabled
//	...
//	o.Add(obs.RangeScans, 1)   // no-op on nil, an atomic add otherwise
//	o.VectorDecoded(n, 0)      // hooks bump several counters at once
//
// Counters are declared once, in the Counter table; histograms in the
// HistID table. All counters are atomics, so a single Collector can be
// shared by every goroutine of a morsel-parallel scan and read
// concurrently via Snapshot without stopping the world.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter names one monotonic event counter. The constants below are
// the counter table, the one place a counter is declared: together
// with counterNames they drive the collector's atomic storage,
// Snapshot, Reset, Counters and through them the /metrics JSON, the
// Prometheus exposition and the metrics-history recorder; alp.Stats
// maps its tagged fields onto the same names.
//
// The order is frozen. It is the order of Counters(), of the
// /metrics.prom counters and of the metrics-history (ALPM) series, so
// moving a counter makes every existing snapshot fail to load with
// "schema drift". A new counter takes one constant, one name and one
// tagged alp.Stats field.
type Counter int

const (
	// Encode side.
	RowGroupsALP     Counter = iota // row-groups encoded with the decimal scheme
	RowGroupsRD                     // row-groups that fell back to ALP_rd
	VectorsEncoded                  // vectors encoded (both schemes)
	EncodeExceptions                // exception slots written during encode
	EncodeNs                        // wall ns spent in row-group encoding
	EncodeValues                    // values encoded

	// Second-stage sampling (per-vector (e,f) choice, §3.2).
	SecondStageSkips      // vectors where sampling was skipped (1 candidate)
	SecondStageEarlyExits // vectors where the greedy search exited early
	SecondStageTried      // candidate combinations evaluated in total
	RDSampledRowGroups    // row-groups that ran ALP_rd sampling
	RDCutsTried           // ALP_rd cut positions evaluated during sampling
	RDDictEntries         // ALP_rd dictionary entries chosen

	// Decode / scan side.
	VectorsDecoded // vectors decompressed (any access path)
	VectorsSkipped // vectors skipped by zone-map push-down
	DecodeNs       // wall ns spent decompressing vectors
	DecodeValues   // values decompressed
	RangeScans     // SumRange scans executed
	MorselClaims   // partitions claimed by scan workers
	ScanWorkers    // worker goroutines launched by the engine

	// Encoded-domain predicate pushdown (batched by FlushScanBatch).
	PushdownVectors   // vectors filtered by the fused unpack+compare kernel
	PushdownFallbacks // vectors that fell back to decode-then-filter
	SelectedRows      // rows that qualified under a pushed-down predicate

	// Encode/decode pipeline (internal/pipeline worker pool).
	PipelineWorkers // workers spawned by the codec pipeline
	PipelineClaims  // row-groups claimed by pipeline workers
	PipelineStalls  // submissions that blocked on a full window

	// Column service (internal/server). Request durations live in the
	// endpoint latency histograms, not in counters.
	ServerRequests // HTTP requests admitted by the service
	ServerSheds    // requests shed with 429 by the concurrency limiter
	ServerRefused  // requests refused with 503 while draining
	ServerBytesIn  // request payload bytes read (ingest)
	ServerBytesOut // response payload bytes written
	ServerScans    // scan/agg/count requests served

	// Selection-aware scan wire format (batched by ScanFrames).
	ScanFramesDense    // frames shipped as envelope + bitmap
	ScanFramesRepacked // frames shipped as re-packed ALP vectors
	ScanFramesRaw      // frames that fell back to raw float64s
	ScanBytesSaved     // raw-encoding bytes minus actual wire bytes

	// Scatter-gather coordinator (internal/cluster).
	ClusterScatters           // scatter fan-outs executed (one per clustered query)
	ClusterBackendCalls       // backend calls issued by scatters
	ClusterFailovers          // row-group groups re-fetched from a replica
	ClusterPartialUnavailable // queries failed typed partial-unavailable
	ClusterStragglers         // scatters whose slowest backend took over twice the fastest
	ClusterRebalances         // row-group range moves completed

	NumCounters
)

// counterNames are the stable public metric names: the /metrics keys,
// the alp_<name> Prometheus counters and the history series names.
var counterNames = [NumCounters]string{
	RowGroupsALP:              "row_groups_alp",
	RowGroupsRD:               "row_groups_rd",
	VectorsEncoded:            "vectors_encoded",
	EncodeExceptions:          "encode_exceptions",
	EncodeNs:                  "encode_ns",
	EncodeValues:              "encode_values",
	SecondStageSkips:          "second_stage_skips",
	SecondStageEarlyExits:     "second_stage_early_exits",
	SecondStageTried:          "second_stage_tried",
	RDSampledRowGroups:        "rd_sampled_row_groups",
	RDCutsTried:               "rd_cuts_tried",
	RDDictEntries:             "rd_dict_entries",
	VectorsDecoded:            "vectors_decoded",
	VectorsSkipped:            "vectors_skipped",
	DecodeNs:                  "decode_ns",
	DecodeValues:              "decode_values",
	RangeScans:                "range_scans",
	MorselClaims:              "morsel_claims",
	ScanWorkers:               "scan_workers",
	PushdownVectors:           "pushdown_vectors",
	PushdownFallbacks:         "pushdown_fallbacks",
	SelectedRows:              "selected_rows",
	PipelineWorkers:           "pipeline_workers",
	PipelineClaims:            "pipeline_claims",
	PipelineStalls:            "pipeline_stalls",
	ServerRequests:            "server_requests",
	ServerSheds:               "server_sheds",
	ServerRefused:             "server_refused",
	ServerBytesIn:             "server_bytes_in",
	ServerBytesOut:            "server_bytes_out",
	ServerScans:               "server_scans",
	ScanFramesDense:           "scan_frames_dense",
	ScanFramesRepacked:        "scan_frames_repacked",
	ScanFramesRaw:             "scan_frames_raw",
	ScanBytesSaved:            "scan_bytes_saved",
	ClusterScatters:           "cluster_scatters",
	ClusterBackendCalls:       "cluster_backend_calls",
	ClusterFailovers:          "cluster_failovers",
	ClusterPartialUnavailable: "cluster_partial_unavailable",
	ClusterStragglers:         "cluster_stragglers",
	ClusterRebalances:         "cluster_rebalances",
}

// MaxBitWidth is the largest FFOR bit width tracked by the per-width
// histogram (float64 integers pack at 0..64 bits).
const MaxBitWidth = 64

// WidthNone is a sentinel bit width for vectors without an FFOR payload
// (ALP_rd vectors); it keeps them out of the bit-width histogram.
const WidthNone = MaxBitWidth + 1

// Collector accumulates codec metrics on atomic counters. The zero
// value is ready for use; a nil *Collector is also valid and turns
// every method into a cheap no-op.
type Collector struct {
	counts       [NumCounters]atomic.Int64
	bitWidthHist [MaxBitWidth + 1]atomic.Int64

	// Latency histograms: per server endpoint and per engine stage.
	// Durations live here (mergeable distributions with quantiles);
	// the counters stay monotonic event counts.
	hists [NumHists]Histogram
}

// Add adds n to counter id. No-op on a nil collector or an
// out-of-range id. Small enough to inline, so a call with a constant
// id compiles to the nil check and one atomic add.
func (c *Collector) Add(id Counter, n int64) {
	if c == nil || id < 0 || id >= NumCounters {
		return
	}
	c.counts[id].Add(n)
}

// ---- hooks that touch several counters or a histogram ----

// RowGroup records the scheme chosen for one row-group.
func (c *Collector) RowGroup(usedRD bool) {
	if usedRD {
		c.Add(RowGroupsRD, 1)
	} else {
		c.Add(RowGroupsALP, 1)
	}
}

// VectorEncoded records one encoded vector: its value count, its
// exception count, and (for the decimal scheme) its FFOR bit width,
// which feeds the bit-width histogram. Pass width > MaxBitWidth (e.g.
// WidthNone) to leave the histogram untouched.
func (c *Collector) VectorEncoded(values, exceptions int, width uint) {
	if c == nil {
		return
	}
	c.counts[VectorsEncoded].Add(1)
	c.counts[EncodeExceptions].Add(int64(exceptions))
	if width <= MaxBitWidth {
		c.bitWidthHist[width].Add(1)
	}
}

// EncodeTime records ns wall time spent encoding values.
func (c *Collector) EncodeTime(ns int64, values int) {
	if c == nil {
		return
	}
	c.counts[EncodeNs].Add(ns)
	c.counts[EncodeValues].Add(int64(values))
}

// SecondStage records one second-level sampling run: how many candidate
// combinations were evaluated and whether the greedy search exited
// before exhausting the candidate list.
func (c *Collector) SecondStage(tried int, early bool) {
	if c == nil {
		return
	}
	c.counts[SecondStageTried].Add(int64(tried))
	if early {
		c.counts[SecondStageEarlyExits].Add(1)
	}
}

// RDSampled records one ALP_rd first-level sampling run: the number of
// cut positions evaluated and the dictionary size chosen.
func (c *Collector) RDSampled(cutsTried, dictEntries int) {
	if c == nil {
		return
	}
	c.counts[RDSampledRowGroups].Add(1)
	c.counts[RDCutsTried].Add(int64(cutsTried))
	c.counts[RDDictEntries].Add(int64(dictEntries))
}

// VectorDecoded records one decompressed vector of n values taking ns
// wall time (pass 0 ns when the caller does not time the decode).
func (c *Collector) VectorDecoded(n int, ns int64) {
	if c == nil {
		return
	}
	c.counts[VectorsDecoded].Add(1)
	c.counts[DecodeValues].Add(int64(n))
	c.counts[DecodeNs].Add(ns)
}

// ScanBatch accumulates the per-vector pushdown counters of one scan
// loop in plain locals. Filtered scans visit thousands of ~µs vectors
// per request; recording three atomic counters per vector is a
// measurable tax on that path, so the loops fold results into a batch
// and flush once per partition — same totals, amortized cost.
type ScanBatch struct {
	Pushdown  int64 // vectors answered in the encoded-integer domain
	Fallbacks int64 // vectors decoded and filtered in the float domain
	Rows      int64 // rows selected
}

// Vector folds one FilterVector/FilterGatherVector result into the
// batch.
func (b *ScanBatch) Vector(count int, pushdown bool) {
	if pushdown {
		b.Pushdown++
	} else {
		b.Fallbacks++
	}
	b.Rows += int64(count)
}

// FlushScanBatch adds the batch to the counters and zeroes it, so one
// batch can be reused across partitions. No-op on a nil collector (the
// batch is still zeroed) or an empty batch.
func (c *Collector) FlushScanBatch(b *ScanBatch) {
	if c != nil {
		if b.Pushdown != 0 {
			c.counts[PushdownVectors].Add(b.Pushdown)
		}
		if b.Fallbacks != 0 {
			c.counts[PushdownFallbacks].Add(b.Fallbacks)
		}
		if b.Rows != 0 {
			c.counts[SelectedRows].Add(b.Rows)
		}
	}
	*b = ScanBatch{}
}

// ScanFrames records one scan request's wire-frame mix: how many frames
// went out under each encoding, and the bytes the compressed encodings
// saved against the raw-float64 floor (raw cost of every selected row
// minus the actual frame bytes, framing included; raw frames contribute
// their own overhead as negative savings). Batched per request like
// ScanBatch — one call per served scan, not per vector.
func (c *Collector) ScanFrames(dense, repacked, raw, bytesSaved int64) {
	if c == nil {
		return
	}
	if dense != 0 {
		c.counts[ScanFramesDense].Add(dense)
	}
	if repacked != 0 {
		c.counts[ScanFramesRepacked].Add(repacked)
	}
	if raw != 0 {
		c.counts[ScanFramesRaw].Add(raw)
	}
	if bytesSaved != 0 {
		c.counts[ScanBytesSaved].Add(bytesSaved)
	}
}

// ClusterScatter records one clustered query's fan-out: the number of
// distinct backends the query scattered to lands in the
// HistClusterFanout width histogram.
func (c *Collector) ClusterScatter(fanout int) {
	if c != nil {
		c.counts[ClusterScatters].Add(1)
		c.hists[HistClusterFanout].Record(int64(fanout))
	}
}

// ---- snapshot ----

// Snapshot is a point-in-time copy of every counter, safe to read,
// compare and serialize. Counts is indexed by Counter; Counters()
// pairs each value with its stable public name.
type Snapshot struct {
	Counts       [NumCounters]int64
	BitWidthHist [MaxBitWidth + 1]int64

	// Hists[id] is the snapshot of latency histogram id (see HistID).
	Hists [NumHists]HistSnapshot
}

// Snapshot copies the counters. A nil Collector yields a zero Snapshot.
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	if c == nil {
		return s
	}
	for i := range s.Counts {
		s.Counts[i] = c.counts[i].Load()
	}
	for i := range s.BitWidthHist {
		s.BitWidthHist[i] = c.bitWidthHist[i].Load()
	}
	for i := range s.Hists {
		s.Hists[i] = c.hists[i].Snapshot()
	}
	return s
}

// Reset zeroes every counter. No-op on nil.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for i := range c.counts {
		c.counts[i].Store(0)
	}
	for i := range c.bitWidthHist {
		c.bitWidthHist[i].Store(0)
	}
	for i := range c.hists {
		c.hists[i].reset()
	}
}

// Metric is one flat metric: a stable name and its current value. The
// names are the public keys surfaced through /metrics and the series
// names the metrics-history recorder stores.
type Metric struct {
	Name  string
	Value int64
}

// Counters returns every scalar counter of the snapshot as a flat
// name/value list in table order. The JSON rendering, the Prometheus
// exposition and the metrics-history recorder all derive their key
// sets from it.
func (s Snapshot) Counters() []Metric {
	out := make([]Metric, NumCounters)
	for i := range out {
		out[i] = Metric{counterNames[i], s.Counts[i]}
	}
	return out
}

// CounterDelta returns the increase of a monotonic counter between two
// scrapes, treating a decrease as a counter reset: the collector was
// reset (or the process restarted) between reads, so the previous
// total no longer applies and the whole new total is the delta.
func CounterDelta(cur, prev int64) int64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// Extra is one additional JSON key spliced into a snapshot rendering —
// the value must already be valid JSON (the server uses this to merge
// its per-column registry stats into the /metrics object while keeping
// the sorted key order).
type Extra struct {
	Name string
	JSON string
}

// String renders the snapshot as a JSON object, making Snapshot usable
// directly as an expvar.Var. Hand-rolled so the package stays free of
// encoding/json. Histograms surface as flat <name>_{count,sum_ns,
// p50_ns,p95_ns,p99_ns,max_ns} keys so a name->number metrics consumer
// picks the quantiles up without knowing the bucket layout. Keys are
// emitted in sorted order, so two renderings of equal snapshots are
// byte-identical and diffs between reads are positional.
func (s Snapshot) String() string { return s.JSON() }

// JSON renders the snapshot like String with extra pre-rendered keys
// merged in, all in sorted key order.
func (s Snapshot) JSON(extras ...Extra) string {
	pairs := make([]Extra, 0, int(NumCounters)+6*int(NumHists)+len(extras)+1)
	for _, c := range s.Counters() {
		pairs = append(pairs, Extra{c.Name, fmt.Sprintf("%d", c.Value)})
	}
	for i := range s.Hists {
		pairs = s.Hists[i].appendJSON(pairs, histNames[i])
	}
	var hist strings.Builder
	hist.WriteByte('[')
	for i, v := range s.BitWidthHist {
		if i > 0 {
			hist.WriteByte(',')
		}
		fmt.Fprintf(&hist, "%d", v)
	}
	hist.WriteByte(']')
	pairs = append(pairs, Extra{"bit_width_hist", hist.String()})
	pairs = append(pairs, extras...)
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Name < pairs[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", p.Name, p.JSON)
	}
	b.WriteByte('}')
	return b.String()
}

// ---- global collector ----

// active is the process-wide collector; nil means collection is off.
var active atomic.Pointer[Collector]

// Enable turns on global collection (idempotent) and returns the
// collector.
func Enable() *Collector {
	for {
		if c := active.Load(); c != nil {
			return c
		}
		c := &Collector{}
		if active.CompareAndSwap(nil, c) {
			return c
		}
	}
}

// Disable turns off global collection. Instrumented paths drop back to
// their single nil-check branch.
func Disable() {
	active.Store(nil)
}

// Active returns the global collector, or nil when collection is
// disabled. Hot paths load it once per operation and call nil-safe
// methods on the result.
func Active() *Collector {
	return active.Load()
}
