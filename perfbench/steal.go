package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Steal time is CPU time the hypervisor gives other guests while this
// one has work to run. On a shared 2-CPU guest it comes in stalls of
// several milliseconds, and every request caught in one is late by the
// stall, so a served run's p99 follows the host's load: in ten runs of
// cluster-mix, agg p99 was 12.5-15.8 ms at under 4% steal and 23-33 ms
// at 7-13%. The fixed-rate window therefore reads the steal counter
// every stealTick and the latency metrics keep the requests due in
// quiet stretches: those with no rise of the counter within stealNear
// of their due time (the counter rises once the stolen time passes
// 10 ms, shortly after a stall), topped up on a busy host as quiet
// says. Whether a request is kept depends only on when it was due,
// never on how long it took, so a slower program is not filtered
// towards looking faster.
const (
	stealTick = 20 * time.Millisecond
	stealNear = 40 * time.Millisecond
)

// stealJiffies reads the steal time of all CPUs from /proc/stat, in
// USER_HZ ticks (1/100 s); -1 when it cannot.
func stealJiffies() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// stealSampler reads the steal counter every stealTick until stopped.
type stealSampler struct {
	stop, done chan struct{}
	first      int64
	last       int64
	rises      []time.Time // when a read found the counter higher
}

func startSteal() *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.first = stealJiffies()
	s.last = s.first
	go func() {
		defer close(s.done)
		t := time.NewTicker(stealTick)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-t.C:
				if j := stealJiffies(); j > s.last {
					s.rises = append(s.rises, now)
					s.last = j
				}
			}
		}
	}()
	return s
}

// Stop ends the sampling and returns the times the counter rose and
// the stolen jiffies in all (0 where /proc/stat cannot be read).
func (s *stealSampler) Stop() ([]time.Time, int64) {
	close(s.stop)
	<-s.done
	return s.rises, s.last - s.first
}

// kindGroup is the latency metric a request kind counts in: agg and
// count share one, scan and ingest have their own.
var kindGroup = [...]int{qAgg: 0, qCount: 0, qScan: 1, qIngest: 2}

// quiet returns the results of lr the latency metrics rest on. Steal
// comes in episodes of a few seconds, so a request counts as due in a
// quiet stretch when no rise of the steal counter lies within
// stealNear of its due time, before or after. In each kind group quiet
// keeps every such request; when that leaves fewer than need[group],
// it tops the group up to that many with the requests farthest from a
// rise. So a run on a busy host keeps its least disturbed requests
// instead of switching to all of them, and the kept set still founds
// the p99s. Which requests are kept depends only on due times and
// steal, never on latencies.
func quiet(lr loadResult, rises []time.Time, need [3]int) []result {
	const never = time.Duration(math.MaxInt64)
	gaps := make([]time.Duration, len(lr.results))
	var groups [3][]int
	k := 0
	for i, r := range lr.results { // in due order
		due := lr.start.Add(r.due)
		for k < len(rises) && rises[k].Before(due) {
			k++
		}
		gaps[i] = never
		if k < len(rises) {
			gaps[i] = rises[k].Sub(due)
		}
		if k > 0 {
			gaps[i] = min(gaps[i], due.Sub(rises[k-1]))
		}
		g := kindGroup[r.q.kind]
		groups[g] = append(groups[g], i)
	}
	var keep []int
	for g, idx := range groups {
		sort.SliceStable(idx, func(a, b int) bool { return gaps[idx[a]] > gaps[idx[b]] })
		n := 0
		for n < len(idx) && gaps[idx[n]] > stealNear {
			n++
		}
		keep = append(keep, idx[:max(n, min(need[g], len(idx)))]...)
	}
	sort.Ints(keep)
	kept := make([]result, len(keep))
	for j, i := range keep {
		kept[j] = lr.results[i]
	}
	return kept
}
