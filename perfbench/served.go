package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/cluster"
	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/server"
)

// servedDatasets are the eight served columns: time series, database
// columns, observability and one ALP_rd column.
var servedDatasets = []string{
	"City-Temp", "Stocks-USA", "Basel-wind",
	"Gov/10", "Food-prices", "NYC/29",
	"Obs/latency-ms",
	"POI-lat",
}

// ingestSlots is the number of rotating names timed ingests write to.
// No read touches them.
const ingestSlots = 8

// limitMs is the agg/count p99 limit that defines slo_qps, and how late
// the generator may run before its backlog counts as growing.
const limitMs = 100

// Request kinds of the served mix.
const (
	qAgg = iota
	qCount
	qScan
	qIngest
)

var kindNames = [...]string{"agg", "count", "scan", "ingest"}

// query is one scheduled request. Reads name a served column and a
// closed range; an ingest writes IngestN values of column col starting
// at off to rotating slot slot.
type query struct {
	kind   int
	col    int
	lo, hi float64
	off    int
	slot   int
}

// servedCol is one served column: its values, the column the server
// stores (encoded in process, for the traced replay) and the sample
// predicates are drawn from.
type servedCol struct {
	dataset, name string
	values        []float64
	col           *format.Column
	qt            quantiles
}

// result is what one request returned, recorded during the window and
// checked against the oracle after it.
type result struct {
	q               *query
	due, start, end time.Duration
	err             error
	sum, min, maxv  uint64 // agg: Float64bits
	count           int64  // agg/count: count; scan: rows
	digest          uint64 // scan: digest64 of the rows
	span            spanRef
	finished        time.Time
}

func (r *result) latencyMs() float64 { return float64(r.end-r.due) / 1e6 }

// mixer deals the requests of the served mix: 60% agg, 15% count, 20%
// ALPS scan at 0.1%-10% selectivity, 5% ingest. It deals from shuffled
// decks rather than drawing each request alone: every 20 requests hold
// the mix exactly, and each kind cycles through every column and, for
// reads, eight strata of its log-uniform selectivity range. So runs
// with different seeds differ in order, arrival times and the
// predicates within each stratum, but not in how many heavy requests
// they hold, which would otherwise move the p99s from seed to seed.
type mixer struct {
	rng     *rand.Rand
	cols    []*servedCol
	ingestN int
	kinds   []int
	cells   [4][]int // per kind: column*selStrata + stratum (ingest: column)
}

const selStrata = 8

var kindDeck = func() []int {
	var d []int
	for k, n := range [...]int{qAgg: 12, qCount: 3, qScan: 4, qIngest: 1} {
		for i := 0; i < n; i++ {
			d = append(d, k)
		}
	}
	return d
}()

func newMixer(rng *rand.Rand, cols []*servedCol, ingestN int) *mixer {
	return &mixer{rng: rng, cols: cols, ingestN: ingestN}
}

// deal pops the next card of deck, refilled from fill and shuffled
// when empty.
func (m *mixer) deal(deck *[]int, fill func() []int) int {
	if len(*deck) == 0 {
		*deck = fill()
		m.rng.Shuffle(len(*deck), func(i, j int) { (*deck)[i], (*deck)[j] = (*deck)[j], (*deck)[i] })
	}
	c := (*deck)[0]
	*deck = (*deck)[1:]
	return c
}

// next deals the next request.
func (m *mixer) next() query {
	q := query{kind: m.deal(&m.kinds, func() []int { return slices.Clone(kindDeck) })}
	n := len(m.cols)
	if q.kind != qIngest {
		n *= selStrata
	}
	cell := m.deal(&m.cells[q.kind], func() []int {
		d := make([]int, n)
		for i := range d {
			d[i] = i
		}
		return d
	})
	if q.kind == qIngest {
		q.col = cell
		q.off = m.rng.Intn(len(m.cols[q.col].values) - m.ingestN + 1)
		return q
	}
	q.col = cell / selStrata
	u := (float64(cell%selStrata) + m.rng.Float64()) / selStrata
	sel := logUniform(u, 0.001, 0.5)
	if q.kind == qScan {
		sel = logUniform(u, 0.001, 0.1)
	}
	q.lo, q.hi = m.cols[q.col].qt.pickRange(sel, m.rng)
	return q
}

// numberIngests gives the ingests of qs the rotating slots in schedule
// order, so ingests in flight together almost never share a slot
// (exec serializes the rare ones that do).
func numberIngests(qs []query) {
	n := 0
	for i := range qs {
		if qs[i].kind == qIngest {
			qs[i].slot = n % ingestSlots
			n++
		}
	}
}

// schedule draws Poisson arrivals at rate per second over window and
// deals each a request.
func schedule(m *mixer, rate float64, window time.Duration) ([]query, []time.Duration) {
	var qs []query
	var due []time.Duration
	t := 0.0
	for {
		t += m.rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			numberIngests(qs)
			return qs, due
		}
		qs = append(qs, m.next())
		due = append(due, d)
	}
}

// servedEnv is the system under test: one server, or a coordinator
// over two backends, on loopback listeners, and the generator's client.
type servedEnv struct {
	cfg     Config
	cols    []*servedCol
	mix     *mixer
	cl      *client.Client
	co      *cluster.Coordinator
	stops   []func()
	trace   *atomic.Pointer[Tracer] // nil in untraced runs
	slotNm  []string
	slotMu  [ingestSlots]sync.Mutex // one ingest per slot at a time
	compBit float64                 // compressed bits of the served columns
}

// listen serves h on a loopback port until the returned stop runs;
// stop waits for the serving goroutine to end.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// traced wraps h in the span middleware when the run is traced.
func (e *servedEnv) traced(prefix string, h http.Handler) http.Handler {
	if e.trace == nil {
		return h
	}
	inner := h
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tr := e.trace.Load(); tr != nil {
			middleware(tr, prefix, inner).ServeHTTP(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	})
}

// roundTripper is the tracing transport when the run is traced.
func (e *servedEnv) roundTripper(name string, next http.RoundTripper) http.RoundTripper {
	if e.trace == nil {
		return next
	}
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if tr := e.trace.Load(); tr != nil {
			return (&tracingTransport{tr: tr, name: name, next: next}).RoundTrip(req)
		}
		return next.RoundTrip(req)
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func (e *servedEnv) close() {
	if e.co != nil {
		e.co.Close()
	}
	for i := len(e.stops) - 1; i >= 0; i-- {
		e.stops[i]()
	}
	e.stops = nil
}

// setupServed generates the columns, builds the oracle, starts the
// servers and ingests every column.
func setupServed(cfg Config, clustered bool, rng *rand.Rand, trace *atomic.Pointer[Tracer]) (*servedEnv, error) {
	e := &servedEnv{cfg: cfg, trace: trace}
	tag := fmt.Sprintf("%04x", rng.Intn(1<<16))
	for i, name := range servedDatasets {
		ds, ok := dataset.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no dataset %q", name)
		}
		v := ds.Generate(cfg.ServedN)
		col := format.EncodeColumn(v)
		e.cols = append(e.cols, &servedCol{
			dataset: name,
			name:    fmt.Sprintf("c%d-%s", i, tag),
			values:  v,
			col:     col,
			qt:      sampleQuantiles(v, rng),
		})
	}
	e.mix = newMixer(rng, e.cols, cfg.IngestN)
	for s := 0; s < ingestSlots; s++ {
		e.slotNm = append(e.slotNm, fmt.Sprintf("w%d-%s", s, tag))
	}
	front, err := e.start(clustered)
	if err != nil {
		e.close()
		return nil, err
	}
	nproc := runtime.NumCPU()
	tp := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, IdleConnTimeout: time.Minute}
	e.stops = append(e.stops, tp.CloseIdleConnections)
	e.cl = client.New(front, client.WithHTTPClient(&http.Client{Transport: e.roundTripper("", tp)}))
	ctx := context.Background()
	for _, c := range e.cols {
		info, err := e.cl.Ingest(ctx, c.name, c.values)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("ingest %s: %w", c.dataset, err)
		}
		e.compBit += float64(info.CompressedBytes) * 8
	}
	return e, nil
}

// start brings up the server (or two backends and the coordinator) and
// returns the URL the generator talks to.
func (e *servedEnv) start(clustered bool) (string, error) {
	if !clustered {
		url, stop, err := listen(e.traced("server", server.New(server.Options{}).Handler()))
		if err != nil {
			return "", err
		}
		e.stops = append(e.stops, stop)
		return url, nil
	}
	var urls []string
	for b := 0; b < 2; b++ {
		url, stop, err := listen(e.traced("server", server.New(server.Options{}).Handler()))
		if err != nil {
			return "", err
		}
		e.stops = append(e.stops, stop)
		urls = append(urls, url)
	}
	var opts cluster.Options
	if e.trace != nil {
		hc := &http.Client{Transport: e.roundTripper("backend.rt", http.DefaultTransport)}
		opts.Pool.ClientOptions = []client.Option{client.WithHTTPClient(hc)}
	}
	e.co = cluster.New(urls, opts)
	url, stop, err := listen(e.traced("cluster", cluster.NewServer(e.co, cluster.ServerOptions{}).Handler()))
	if err != nil {
		return "", err
	}
	e.stops = append(e.stops, stop)
	return url, nil
}

// exec runs one request and records its answer. The latency clock
// stops when the client call returns; digesting scan rows happens
// after.
func (e *servedEnv) exec(ctx context.Context, tr *Tracer, q *query, start time.Time, r *result) {
	if tr != nil {
		r.span = spanRef{op: tr.NewID(), id: tr.NewID()}
		ctx = withSpan(ctx, r.span)
	}
	s := Span{ID: r.span.id, Op: r.span.op, Name: "client." + kindNames[q.kind], Start: tr.Now()}
	c := e.cols[q.col]
	var rows []float64
	switch q.kind {
	case qAgg:
		a, err := e.cl.Agg(ctx, c.name, client.Between(q.lo, q.hi))
		r.err = err
		r.sum, r.min, r.maxv, r.count = math.Float64bits(a.Sum), math.Float64bits(a.Min), math.Float64bits(a.Max), a.Count
	case qCount:
		r.count, r.err = e.cl.Count(ctx, c.name, client.Between(q.lo, q.hi))
	case qScan:
		rows, r.err = e.cl.Scan(ctx, c.name, client.Between(q.lo, q.hi))
	case qIngest:
		// Two ingests to one name in flight together could commit in
		// either order (or, through the coordinator, interleave per
		// backend), and the read-back check could not tell which won.
		e.slotMu[q.slot].Lock()
		var info client.ColumnInfo
		info, r.err = e.cl.Ingest(ctx, e.slotNm[q.slot], c.values[q.off:q.off+e.cfg.IngestN])
		r.count = int64(info.Values)
		r.finished = time.Now() // under the lock, so finish order is commit order
		e.slotMu[q.slot].Unlock()
	}
	if r.finished.IsZero() {
		r.finished = time.Now()
	}
	r.end = r.finished.Sub(start)
	s.End = tr.Now()
	tr.Record(s)
	if q.kind == qScan {
		r.count, r.digest = int64(len(rows)), digest64(rows)
	}
}

// loadResult is one open-loop window.
type loadResult struct {
	start          time.Time // due times count from here
	results        []result
	maxOutstanding int64
	started        int // requests claimed before the deadline
}

// drive runs the schedule open loop: requests are due at fixed times
// whatever the system does, and nproc workers take them in order,
// waiting when early and falling behind when the system is slow, so
// each latency counts from when its request was due. Workers stop
// claiming at deadline (0 = none).
func (e *servedEnv) drive(tr *Tracer, qs []query, due []time.Duration, deadline time.Duration) loadResult {
	workers := runtime.NumCPU()
	res := make([]result, len(qs))
	var next, done atomic.Int64
	var maxOut atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(qs) {
					return
				}
				if wait := due[k] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				now := time.Since(start)
				if deadline > 0 && now > deadline {
					next.Store(int64(len(qs)))
					return
				}
				// Due but not finished, this one included.
				dueNow := sort.Search(len(due), func(i int) bool { return due[i] > now })
				out := int64(dueNow) - done.Load()
				for m := maxOut.Load(); out > m && !maxOut.CompareAndSwap(m, out); m = maxOut.Load() {
				}
				r := &res[k]
				r.q, r.due, r.start = &qs[k], due[k], now
				e.exec(ctx, tr, &qs[k], start, r)
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	lr := loadResult{start: start, maxOutstanding: maxOut.Load()}
	for i := range res {
		if res[i].q != nil {
			lr.results = append(lr.results, res[i])
		}
	}
	lr.started = len(lr.results)
	return lr
}

// kindLatencies summarizes the latencies (ms) of the given kinds;
// failed requests count as infinitely late.
func kindLatencies(rs []result, kinds ...int) Summary {
	var v []float64
	for i := range rs {
		for _, k := range kinds {
			if rs[i].q.kind == k {
				l := rs[i].latencyMs()
				if rs[i].err != nil {
					l = math.Inf(1)
				}
				v = append(v, l)
			}
		}
	}
	return Summarize(v)
}

// lateMs is how late each request started against its schedule.
func lateMs(rs []result) []float64 {
	v := make([]float64, len(rs))
	for i := range rs {
		v[i] = float64(rs[i].start-rs[i].due) / 1e6
	}
	return v
}

// backlogGrew reports whether the generator fell behind for good: the
// requests of the window's last quarter started, at the median, more
// than limitMs late.
func backlogGrew(lr loadResult, total int) bool {
	if lr.started < total {
		return true
	}
	rs := lr.results
	if len(rs) < 8 {
		return false
	}
	return median(lateMs(rs[len(rs)*3/4:])) > limitMs
}

// oracle answers reads in process from uncompressed relations over
// the same values (no ALP kernel on its path), memoized per column and
// predicate. It is safe for concurrent use.
type oracle struct {
	clustered bool
	rels      []*engine.Relation
	mu        sync.Mutex
	aggs      map[query]engine.Agg
	counts    map[query]int64
	scans     map[query][2]uint64
}

func newOracle(cols []*servedCol, clustered bool) *oracle {
	o := &oracle{clustered: clustered, aggs: map[query]engine.Agg{}, counts: map[query]int64{}, scans: map[query][2]uint64{}}
	for _, c := range cols {
		o.rels = append(o.rels, engine.BuildUncompressed(c.values))
	}
	return o
}

// memo returns m[key of q], computing and storing it on a miss.
func memo[V any](o *oracle, m map[query]V, q query, compute func(engine.Predicate) V) V {
	key := query{col: q.col, lo: q.lo, hi: q.hi}
	o.mu.Lock()
	v, ok := m[key]
	o.mu.Unlock()
	if ok {
		return v
	}
	v = compute(engine.Between(q.lo, q.hi))
	o.mu.Lock()
	m[key] = v
	o.mu.Unlock()
	return v
}

// agg is the single-node answer (one running fold, threads = 1) or,
// for the coordinator, per-row-group partials merged in row-group
// order — the two shapes the service documents as bit-exact.
func (o *oracle) agg(q query) engine.Agg {
	return memo(o, o.aggs, q, func(p engine.Predicate) engine.Agg {
		if o.clustered {
			parts, _ := o.rels[q.col].FilterAggPartials(1, p, nil)
			return engine.MergeAggs(parts)
		}
		a, _ := o.rels[q.col].FilterAgg(1, p)
		return a
	})
}

func (o *oracle) count(q query) int64 {
	return memo(o, o.counts, q, func(p engine.Predicate) int64 { return o.rels[q.col].FilterCount(1, p) })
}

func (o *oracle) scan(q query) (int64, uint64) {
	s := memo(o, o.scans, q, func(p engine.Predicate) [2]uint64 {
		rows := o.rels[q.col].FilterRows(p)
		return [2]uint64{uint64(len(rows)), digest64(rows)}
	})
	return int64(s[0]), s[1]
}

// check compares every answer with the oracle and counts failures. The
// oracle's answers, the costly part, are worked out on every CPU after
// the timed window. The last ingest to each slot (by completion, which
// is commit order since ingests to one slot never overlap) is
// remembered for the read-back check.
func (e *servedEnv) check(rep *Report, o *oracle, rs []result, lastIngest map[int]*result) {
	rep.Attempted += len(rs)
	msgs := make([]string, len(rs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(rs); i = int(next.Add(1)) - 1 {
				msgs[i] = e.verify(o, &rs[i])
			}
		}()
	}
	wg.Wait()
	for i := range rs {
		r := &rs[i]
		if msgs[i] != "" {
			rep.fail("%s", msgs[i])
			continue
		}
		if r.q.kind == qIngest {
			if prev := lastIngest[r.q.slot]; prev == nil || r.finished.After(prev.finished) {
				lastIngest[r.q.slot] = r
			}
		}
	}
}

// verify returns why r's answer is wrong, or "".
func (e *servedEnv) verify(o *oracle, r *result) string {
	q := r.q
	c := e.cols[q.col]
	if r.err != nil {
		return fmt.Sprintf("%s %s: %v", kindNames[q.kind], c.dataset, r.err)
	}
	switch q.kind {
	case qAgg:
		w := o.agg(*q)
		if r.count != w.Count || r.sum != math.Float64bits(w.Sum) || r.min != math.Float64bits(w.Min) || r.maxv != math.Float64bits(w.Max) {
			return fmt.Sprintf("agg %s [%g, %g]: got sum %016x count %d, want %016x %d", c.dataset, q.lo, q.hi, r.sum, r.count, math.Float64bits(w.Sum), w.Count)
		}
	case qCount:
		if w := o.count(*q); r.count != w {
			return fmt.Sprintf("count %s [%g, %g]: got %d, want %d", c.dataset, q.lo, q.hi, r.count, w)
		}
	case qScan:
		if n, d := o.scan(*q); r.count != n || r.digest != d {
			return fmt.Sprintf("scan %s [%g, %g]: got %d rows digest %016x, want %d %016x", c.dataset, q.lo, q.hi, r.count, r.digest, n, d)
		}
	case qIngest:
		if r.count != int64(e.cfg.IngestN) {
			return fmt.Sprintf("ingest %s: stored %d values, want %d", c.dataset, r.count, e.cfg.IngestN)
		}
	}
	return ""
}

// checkIngests reads every written slot back through client.Values and
// compares it with the last ingest to that slot.
func (e *servedEnv) checkIngests(rep *Report, lastIngest map[int]*result) {
	ctx := context.Background()
	for slot, r := range lastIngest {
		rep.Attempted++
		got, err := e.cl.Values(ctx, e.slotNm[slot])
		if err != nil {
			rep.fail("read back %s: %v", e.slotNm[slot], err)
			continue
		}
		want := e.cols[r.q.col].values[r.q.off : r.q.off+e.cfg.IngestN]
		if len(got) != len(want) || digest64(got) != digest64(want) {
			rep.fail("read back %s: values differ from the last ingest", e.slotNm[slot])
		}
	}
}

// warmUp runs a closed-loop burst of the mix (all due at once): pools,
// connections, first-use allocations and caches settle before timing.
func (e *servedEnv) warmUp() loadResult {
	n := 40 + 8*len(e.cols)
	qs := make([]query, n)
	due := make([]time.Duration, n)
	for i := range qs {
		qs[i] = e.mix.next()
	}
	numberIngests(qs)
	return e.drive(nil, qs, due, 0)
}

func runServed(cfg Config, t0 time.Time, clustered bool) (*Report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.Seed))
	alp.EnableStats() // as cmd/alpserved does
	defer alp.DisableStats()
	var trace *atomic.Pointer[Tracer]
	if cfg.Trace {
		trace = &atomic.Pointer[Tracer]{}
	}
	var o *oracle
	last := map[int]*result{}
	var env *servedEnv
	var setups []float64
	for i := 0; i < max(1, cfg.Setups) && (i == 0 || !cfg.Trace); i++ {
		began := t0
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
			debug.FreeOSMemory()
			began = time.Now()
		}
		last = map[int]*result{}
		var err error
		if env, err = setupServed(cfg, clustered, rng, trace); err != nil {
			return nil, err
		}
		o = newOracle(env.cols, clustered)
		warm := env.warmUp()
		setups = append(setups, time.Since(began).Seconds())
		env.check(rep, o, warm.results, last)
	}
	defer env.close()
	rep.infof("columns %d x %d values, ingest %d values, %d slots, rate %g req/s, limit %d ms", len(env.cols), cfg.ServedN, cfg.IngestN, ingestSlots, cfg.RateQPS, limitMs)
	rep.infof("setup_s runs %v", setups)
	if cfg.Trace {
		return env.traceServed(rep, o, last, rng, time.Duration(cfg.Seconds/2*float64(time.Second)), clustered)
	}

	// Seven eighths of the window at the fixed rate, one eighth searching
	// for slo_qps.
	fixed := time.Duration(cfg.Seconds * 7 / 8 * float64(time.Second))
	lr, timed := env.fixedRate(rep, o, last, fixed)
	if thin := servedEndToEnd(rep, env, timed); thin != "" && rep.Invalid == "" {
		rep.Invalid = thin
	}
	late := Summarize(lateMs(lr.results))
	rep.infof("generator late_p50_ms %.3f late_p99_ms %.3f max_outstanding %d requests %d", late.P50, late.P99, lr.maxOutstanding, len(lr.results))

	slo, steps := env.sloSearch(rep, o, last, rep.Metrics["agg_p99_ms"].Value, time.Duration(cfg.Seconds*float64(time.Second))-fixed)
	for _, s := range steps {
		rep.infof("slo step %s", s)
	}
	rep.set("slo_qps", slo, fmt.Sprintf("agg p99 <= %d ms, %d steps", limitMs, len(steps)))
	env.checkIngests(rep, last)
	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mib", rss, "VmHWM")
	return rep, nil
}

// fixedRate runs the fixed-rate window and returns its load (for the
// generator numbers) and the requests the latency metrics rest on:
// those due in quiet stretches of the host (see quiet in steal.go).
func (e *servedEnv) fixedRate(rep *Report, o *oracle, last map[int]*result, window time.Duration) (loadResult, []result) {
	qs, due := schedule(e.mix, e.cfg.RateQPS, window)
	st := startSteal()
	lr := e.drive(nil, qs, due, 0)
	rises, stolen := st.Stop()
	e.check(rep, o, lr.results, last)
	if backlogGrew(lr, len(qs)) && rep.Invalid == "" {
		rep.Invalid = fmt.Sprintf("backlog grew at the fixed rate %g req/s", e.cfg.RateQPS)
	}
	// The fewest samples that put MinBeyond beyond a nearest-rank p99;
	// ingest has only a median, and a tenth of that serves it.
	p99Need := 100*e.cfg.MinBeyond + 1
	kept := quiet(lr, rises, [3]int{p99Need, p99Need, p99Need/10 + 1})
	rep.infof("fixed-rate window %.1f s: host steal %.1f%% of CPU time, %d of %d requests kept",
		window.Seconds(), float64(stolen)/(100*window.Seconds()*float64(runtime.NumCPU()))*100, len(kept), len(lr.results))
	return lr, kept
}

// servedEndToEnd fills the latency and throughput metrics of the
// fixed-rate window from the percentiles of rs. It returns why rs is
// too thin for a founded p99 (fewer than MinBeyond samples beyond the
// agg/count or scan p99), or "".
func servedEndToEnd(rep *Report, env *servedEnv, rs []result) string {
	agg := kindLatencies(rs, qAgg, qCount)
	scan := kindLatencies(rs, qScan)
	ing := kindLatencies(rs, qIngest)
	note := func(what string, s Summary) string {
		return fmt.Sprintf("%s n=%d beyond_p99=%d", what, s.N, s.Beyond)
	}
	rep.set("agg_p50_ms", agg.P50, note("/agg+/count", agg))
	rep.set("agg_p99_ms", agg.P99, note("/agg+/count", agg))
	rep.set("scan_p50_ms", scan.P50, note("/scan", scan))
	rep.set("scan_p99_ms", scan.P99, note("/scan", scan))
	rep.set("ingest_p50_ms", ing.P50, note("ingest", ing))
	var rate []float64
	for i := range rs {
		if r := &rs[i]; r.q.kind == qScan {
			rate = append(rate, float64(r.count)/r.latencyMs()/1e3)
		}
	}
	rep.set("encode_mvs", float64(env.cfg.IngestN)/ing.P50/1e3, "ingested values / ingest p50")
	rep.set("decode_mvs", median(rate), "median over scans of rows / latency, client decode included")
	rep.set("sum_mvs", float64(env.cfg.ServedN)/agg.P50/1e3, "column values / agg+count p50")
	var values float64
	for _, c := range env.cols {
		values += float64(len(c.values))
	}
	rep.set("bits_per_value", env.compBit/values, "served columns")
	if min(agg.Beyond, scan.Beyond) < env.cfg.MinBeyond {
		return fmt.Sprintf("p99 too thin: %d agg/count and %d scan samples beyond it, want %d", agg.Beyond, scan.Beyond, env.cfg.MinBeyond)
	}
	return ""
}

// sloSteps are the offered rates of the slo_qps steps, as multiples of
// the fixed rate.
var sloSteps = []float64{2.75, 3.5, 4.25}

// sloSearch finds the highest offered rate at which the agg/count p99
// stays within the limit. The fixed-rate window is the first point;
// steps at rising multiples of that rate follow (a failed request or a
// growing backlog counts as missing the limit; once a step overloads
// the system, higher ones are skipped). The answer interpolates the
// limit crossing in log rate against log p99 between the highest point
// within the limit and the next one, so it moves smoothly with the
// measured latencies, and a lower step missing the limit during a
// passing stall does not end the search.
func (e *servedEnv) sloSearch(rep *Report, o *oracle, last map[int]*result, fixedP99 float64, budget time.Duration) (float64, []string) {
	cfg := e.cfg
	step := budget / time.Duration(len(sloSteps))
	rates, p99s := []float64{cfg.RateQPS}, []float64{fixedP99}
	notes := []string{fmt.Sprintf("rate %.0f p99 %.2f ms (fixed-rate window)", cfg.RateQPS, fixedP99)}
	for _, m := range sloSteps {
		rate := cfg.RateQPS * m
		qs, due := schedule(e.mix, rate, step)
		lr := e.drive(nil, qs, due, 2*step)
		e.check(rep, o, lr.results, last)
		p99 := kindLatencies(lr.results, qAgg, qCount).P99
		overloaded := backlogGrew(lr, len(qs))
		if overloaded {
			// Latencies count from the due time, so a growing backlog
			// already shows in the p99; make sure it reads as a miss.
			p99 = math.Max(p99, 2*limitMs)
		}
		notes = append(notes, fmt.Sprintf("rate %.0f p99 %.2f ms n=%d", rate, p99, len(lr.results)))
		rates, p99s = append(rates, rate), append(p99s, p99)
		if overloaded {
			break
		}
	}
	h := -1
	for i, p := range p99s {
		if p <= limitMs {
			h = i
		}
	}
	switch {
	case h < 0:
		return cfg.RateQPS * limitMs / fixedP99, append(notes, "no point within the limit: the fixed rate scaled down")
	case h == len(p99s)-1:
		return rates[h], append(notes, "every step within the limit: slo_qps is a lower bound")
	case math.IsInf(p99s[h+1], 0): // a request failed
		return math.Sqrt(rates[h] * rates[h+1]), notes
	}
	f := math.Log(limitMs/p99s[h]) / math.Log(p99s[h+1]/p99s[h])
	return rates[h] * math.Pow(rates[h+1]/rates[h], f), notes
}
