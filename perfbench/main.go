// Command perfbench is the repository benchmark: it runs one named
// workload with a seed, checks every answer bit for bit, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the run is replayed with spans on and the metrics are the per-layer
// ones (spans go to a file under --spans). See README.md.
//
//	go run . --workload serve-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// MetricSpec names one reported metric and its unit.
type MetricSpec struct{ Name, Unit string }

// endToEnd lists the metrics of an untraced run, in report order. Every
// workload reports all of them (README.md says what each means on
// each workload).
var endToEnd = []MetricSpec{
	{"setup_s", "s"},
	{"encode_mvs", "MV/s"},
	{"decode_mvs", "MV/s"},
	{"sum_mvs", "MV/s"},
	{"bits_per_value", "bits"},
	{"agg_p50_ms", "ms"},
	{"agg_p99_ms", "ms"},
	{"scan_p50_ms", "ms"},
	{"scan_p99_ms", "ms"},
	{"ingest_p50_ms", "ms"},
	{"slo_qps", "req/s"},
	{"peak_rss_mib", "MiB"},
}

// codecKinds are the four column kinds of codec-large, the suffixes of
// the per-column layer metrics.
var codecKinds = []string{"decimal", "sparse", "rd", "f32"}

// perLayer lists the metrics of a traced run, in report order.
var perLayer = func() []MetricSpec {
	m := []MetricSpec{
		{"bitpack.unpack_mvs", "MV/s"},
		{"fastlanes.ffor_decode_mvs", "MV/s"},
		{"fastlanes.filter_us", "us"},
		{"alpenc.decode_mvs", "MV/s"},
		{"alpenc.encode_mvs", "MV/s"},
		{"alpenc.exceptions_per_vector", "count"},
		{"alpenc.second_stage_tried_per_vector", "count"},
		{"alprd.decode_mvs", "MV/s"},
		{"alprd.encode_mvs", "MV/s"},
	}
	for _, k := range codecKinds {
		m = append(m,
			MetricSpec{"format.decode_vector_mvs." + k, "MV/s"},
			MetricSpec{"format.decode_alloc_mvs." + k, "MV/s"},
			MetricSpec{"format.encode_mvs." + k, "MV/s"})
	}
	return append(m, []MetricSpec{
		{"format.vectors_touched_ratio", "ratio"},
		{"format.scan_bytes_per_row", "B/row"},
		{"format.scan_decode_mvs", "MV/s"},
		{"engine.sum_mvs", "MV/s"},
		{"engine.raw_sum_mvs", "MV/s"},
		{"engine.filter_agg_us", "us"},
		{"engine.pushdown_ratio", "ratio"},
		{"pipeline.encode_speedup", "ratio"},
		{"pipeline.stalls", "count"},
		{"server.handler_us.agg", "us"},
		{"server.handler_us.scan", "us"},
		{"server.handler_us.ingest", "us"},
		{"server.wire_us.agg", "us"},
		{"server.wire_us.scan", "us"},
		{"server.bytes_out_per_request", "B"},
		{"server.shed_ratio", "ratio"},
		{"client.retries", "count"},
		{"client.transport_errors", "count"},
		{"client.shed", "count"},
		{"cluster.handler_us.agg", "us"},
		{"cluster.self_us.agg", "us"},
		{"cluster.fanout_per_query", "count"},
		{"cluster.straggler_gap_us", "us"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"runtime.allocs_per_op", "count"},
		{"generator.late_p99_ms", "ms"},
		{"generator.max_outstanding", "count"},
		{"trace.overhead_pct", "%"},
	}...)
}()

// Config is one run's parameters. The defaults are the benchmark; the
// self-tests shrink the sizes.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	SpanDir  string

	CodecN  int // values per codec-large column
	ServedN int // values per served column
	IngestN int // values per timed ingest
	Setups  int // set-ups per run; setup_s is their median

	// RateQPS is the fixed offered rate of the served mix.
	RateQPS float64
	// MinBeyond is how many samples must lie beyond each served p99
	// (agg/count and scan) for the run to be valid.
	MinBeyond int
	// Replays caps the served requests replayed below the handler in a
	// traced run.
	Replays int
}

// DefaultConfig is the benchmark as BENCHMARK.json runs it.
func DefaultConfig() Config {
	return Config{
		CodecN:    16 << 20,
		ServedN:   1 << 18,
		IngestN:   131072,
		Setups:    3,
		RateQPS:   200,
		MinBeyond: 10,
		Replays:   200,
		SpanDir:   ".bench_build/spans",
	}
}

// Metric is one reported value; its unit comes from the metric list.
type Metric struct {
	Value float64
	Note  string // sample counts and the like, for the text report
}

// Report is what a workload run hands back.
type Report struct {
	Attempted int
	Failed    int
	Failures  []string // the first few failure messages
	Invalid   string   // set when the load generator could not hold the schedule
	Info      []string
	Metrics   map[string]Metric
}

func newReport() *Report { return &Report{Metrics: map[string]Metric{}} }

func (r *Report) set(name string, v float64, note string) {
	r.Metrics[name] = Metric{Value: v, Note: note}
}

func (r *Report) infof(format string, a ...any) { r.Info = append(r.Info, fmt.Sprintf(format, a...)) }

// fail counts one failed operation.
func (r *Report) fail(format string, a ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
	}
}

var workloads = map[string]func(Config, time.Time) (*Report, error){
	"codec-large": runCodec,
	"serve-mix":   func(c Config, t0 time.Time) (*Report, error) { return runServed(c, t0, false) },
	"cluster-mix": func(c Config, t0 time.Time) (*Report, error) { return runServed(c, t0, true) },
}

func main() {
	start := time.Now()
	os.Exit(run(os.Args[1:], DefaultConfig(), start, os.Stdout, os.Stderr))
}

// run parses the flags, runs the workload and prints the report; it
// returns the exit code: 0 only for a complete run with no failure.
func run(args []string, cfg Config, start time.Time, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.Workload, "workload", "", "codec-large, serve-mix or cluster-mix")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.SpanDir, "spans", cfg.SpanDir, "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = *trace == 1
	fn, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload codec-large|serve-mix|cluster-mix, --seconds > 0, --trace 0|1\n")
		return 2
	}
	rep, err := fn(cfg, start)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	if err := printReport(stdout, cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.Failed > 0 || rep.Invalid != "" {
		return 1
	}
	return 0
}

// printReport writes the human-readable lines and then the JSON result
// line. It refuses a report that lacks a metric or holds a non-finite
// value, so the result line is always complete.
func printReport(out io.Writer, cfg Config, rep *Report) error {
	specs := endToEnd
	if cfg.Trace {
		specs = perLayer
	}
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	fmt.Fprintf(w, "go %s nproc %d gomaxprocs %d\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, line := range rep.Info {
		fmt.Fprintln(w, line)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	var missing []string
	for _, s := range specs {
		m, ok := rep.Metrics[s.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, s.Name)
			continue
		}
		metrics[s.Name] = value{m.Value, s.Unit}
		fmt.Fprintf(w, "%-40s %14s %-6s %s\n", s.Name, strconv.FormatFloat(m.Value, 'g', 8, 64), s.Unit, m.Note)
	}
	if len(missing) > 0 {
		w.Flush()
		return fmt.Errorf("no value for %s", strings.Join(missing, ", "))
	}
	attempted := max(rep.Attempted, 1)
	fmt.Fprintf(w, "fail_ratio %g (%d of %d operations)\n", float64(rep.Failed)/float64(attempted), rep.Failed, attempted)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	if rep.Invalid != "" {
		fmt.Fprintf(w, "INVALID %s\n", rep.Invalid)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0 && rep.Invalid == "", attempted, rep.Failed, metrics})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}

// digest64 folds float64 bit patterns into one word, so a result can be
// checked against the oracle after the timed window without keeping it.
func digest64(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h = (h ^ math.Float64bits(x)) * 1099511628211
	}
	return h
}

func digest32(v []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h = (h ^ uint64(math.Float32bits(x))) * 1099511628211
	}
	return h
}
