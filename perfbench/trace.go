package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval of the traced run. Every span of one
// operation shares Op; Parent is the ID of the span that caused it (0
// for an operation's root). Start and End are nanoseconds since the
// tracer was created.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall time in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// tracing off: every method is a no-op, so untraced runs pay one nil
// check per boundary.
type Tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty span log.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// NewID returns a fresh span or operation ID (never 0).
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Now is the tracer clock in nanoseconds.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// Record stores a finished span.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Time runs fn inside a span named name and returns the span.
func (t *Tracer) Time(name string, op, parent uint64, fn func()) Span {
	s := Span{ID: t.NewID(), Parent: parent, Op: op, Name: name, Start: t.Now()}
	fn()
	s.End = t.Now()
	t.Record(s)
	return s
}

// spanRef is the (operation, span) pair that rides a request's context
// and headers, so spans recorded on the far side of an HTTP hop attach
// to the span that made the call.
type spanRef struct{ op, id uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

const (
	opHeader   = "X-Perfbench-Op"
	spanHeader = "X-Perfbench-Span"
)

// tracingTransport is an http.RoundTripper that forwards the caller's
// span reference as headers. With name set it also records one span
// per round trip (the coordinator's backend calls), parented to the
// span found in the request context.
type tracingTransport struct {
	tr   *Tracer
	name string
	next http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := spanFrom(req.Context())
	if !ok {
		return tt.next.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	if tt.name == "" {
		setSpanHeaders(req.Header, ref)
		return tt.next.RoundTrip(req)
	}
	s := Span{ID: tt.tr.NewID(), Parent: ref.id, Op: ref.op, Name: tt.name, Start: tt.tr.Now()}
	setSpanHeaders(req.Header, spanRef{op: ref.op, id: s.ID})
	resp, err := tt.next.RoundTrip(req)
	if err == nil {
		// The round trip ends when the body has been read; the pool
		// client reads it fully before returning, so wrap the body.
		resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { s.End = tt.tr.Now(); tt.tr.Record(s) }}
	} else {
		s.End = tt.tr.Now()
		tt.tr.Record(s)
	}
	return resp, err
}

func setSpanHeaders(h http.Header, ref spanRef) {
	h.Set(opHeader, strconv.FormatUint(ref.op, 10))
	h.Set(spanHeader, strconv.FormatUint(ref.id, 10))
}

// spanBody closes its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// middleware wraps a server or coordinator handler: each request gets a
// span named prefix+"."+kind, parented to the span named in the
// request headers, and the span reference rides the request context so
// calls the handler makes (coordinator to backend) become its children.
func middleware(tr *Tracer, prefix string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		s := Span{ID: tr.NewID(), Parent: parent, Op: op, Name: prefix + "." + requestKind(r), Start: tr.Now()}
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), spanRef{op: op, id: s.ID})))
		s.End = tr.Now()
		tr.Record(s)
	})
}

// requestKind names a column-service request by its endpoint.
func requestKind(r *http.Request) string {
	if r.Method == http.MethodPost {
		return "ingest"
	}
	if i := strings.LastIndexByte(r.URL.Path, '/'); i >= 0 {
		return r.URL.Path[i+1:]
	}
	return r.URL.Path
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once; the parts of a child outside its parent are ignored).
func SelfTimes(spans []Span) map[uint64]int64 {
	children := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// SelfTimeByName is the median self time, in microseconds, of every
// span name, with the span count.
func SelfTimeByName(spans []Span) map[string]Summary {
	self := SelfTimes(spans)
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(self[s.ID])/1e3)
	}
	out := make(map[string]Summary, len(by))
	for name, v := range by {
		out[name] = Summarize(v)
	}
	return out
}

// WriteSpans writes one JSON object per span (with its self time) to
// path, creating the directory.
func WriteSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	self := SelfTimes(spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			Span
			SelfNs int64 `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
