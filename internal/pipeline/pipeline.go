// Package pipeline is the worker-pool substrate that parallelizes ALP
// above the vector level. ALP's design makes this embarrassingly
// parallel: each row-group of 100 vectors is sampled and encoded
// independently (§3.2, Algorithm 1), and every compressed vector is
// independently decodable, so both directions fan out over row-groups
// with no cross-worker coordination beyond claiming work.
//
// Two primitives cover the codec's shapes of parallelism:
//
//   - Run is the morsel-style scheduler for fully materialized inputs
//     (Encode, Compress, Decode, Values): workers atomically claim the
//     next row-group index — the same atomic-claim pattern the scan
//     engine uses for partitions — and write results into
//     caller-preallocated, index-addressed storage, so output is
//     deterministic and byte-identical to the serial path.
//
//   - Pool is the bounded streaming pool for incremental producers
//     (Writer): jobs are submitted one row-group at a time and results
//     are collected in submission order. Submission blocks while
//     workers+1 jobs are in flight, which bounds the raw row-group
//     memory held by a streaming encode to workers+1 groups no matter
//     how fast the producer writes.
//
// Both primitives report into the obs collector: workers spawned,
// row-groups claimed, and submissions stalled on a full window.
package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/goalp/alp/internal/obs"
)

// Workers resolves a requested worker count: values >= 1 are returned
// as-is; zero or negative means one worker per CPU (GOMAXPROCS).
func Workers(w int) int {
	if w >= 1 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes fn(worker, item) for every item in [0, n), fanning out
// over at most `workers` goroutines (0 or negative = one per CPU,
// clamped to n). Workers claim item indices with an atomic counter, so
// any worker may process any item; the worker argument (0 <=
// worker < effective workers) lets callers keep per-worker scratch
// state. With one effective worker Run executes inline, spawning
// nothing — the serial paths pay no scheduling cost.
//
// Run returns only when every item has been processed. Determinism is
// the caller's contract: fn must write its result to storage addressed
// by item index, never by completion order.
func Run(n, workers int, fn func(worker, item int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	o := obs.Active()
	o.Add(obs.PipelineWorkers, int64(workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				o.Add(obs.PipelineClaims, 1)
				fn(t, i)
			}
		}(t)
	}
	wg.Wait()
}

// Pool is a bounded streaming worker pool: Submit hands jobs to
// `workers` goroutines and Finish returns one result per job, in
// submission order regardless of completion order. At most workers+1
// jobs are in flight at once (workers being processed plus one queued);
// Submit blocks when the window is full, applying back-pressure to the
// producer and bounding memory.
type Pool[J, R any] struct {
	jobs      chan poolJob[J]
	wg        sync.WaitGroup
	mu        sync.Mutex
	results   []R
	submitted int
}

type poolJob[J any] struct {
	index int
	job   J
}

// NewPool starts a pool of Workers(workers) goroutines, each running fn
// on claimed jobs. The worker argument (0 <= worker < effective
// workers) identifies the goroutine for per-worker scratch state.
func NewPool[J, R any](workers int, fn func(worker int, job J) R) *Pool[J, R] {
	workers = Workers(workers)
	p := &Pool[J, R]{jobs: make(chan poolJob[J], 1)}
	obs.Active().Add(obs.PipelineWorkers, int64(workers))
	for t := 0; t < workers; t++ {
		p.wg.Add(1)
		go func(t int) {
			defer p.wg.Done()
			for j := range p.jobs {
				obs.Active().Add(obs.PipelineClaims, 1)
				r := fn(t, j.job)
				p.mu.Lock()
				for len(p.results) <= j.index {
					var zero R
					p.results = append(p.results, zero)
				}
				p.results[j.index] = r
				p.mu.Unlock()
			}
		}(t)
	}
	return p
}

// Submit queues one job. It blocks while workers+1 jobs are already in
// flight. Submit must not be called concurrently with itself or after
// Finish.
func (p *Pool[J, R]) Submit(job J) {
	pj := poolJob[J]{index: p.submitted, job: job}
	p.submitted++
	select {
	case p.jobs <- pj:
	default:
		obs.Active().Add(obs.PipelineStalls, 1)
		p.jobs <- pj
	}
}

// Finish waits for every submitted job and returns the results in
// submission order. The pool must not be used afterwards.
func (p *Pool[J, R]) Finish() []R {
	close(p.jobs)
	p.wg.Wait()
	return p.results
}
