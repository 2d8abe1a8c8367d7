// The series schema: which float64 series one obs snapshot scrape
// produces, and in what order. The schema is derived from the same
// tables that feed /metrics (obs.Snapshot.Counters and
// obs.HistSnapshot.Flats), so every key a metrics consumer can read
// point-in-time also exists as a history series:
//
//   - every scalar counter, recorded as the delta since the previous
//     scrape (obs.CounterDelta semantics: a shrunk counter means the
//     collector reset, and the new total is the delta)
//   - per latency histogram: <name>_count and <name>_sum_ns deltas,
//     plus <name>_p50_ns / _p95_ns / _p99_ns / _max_ns gauges sampled
//     from the cumulative distribution
//   - optionally (Options.HistogramBuckets) the raw log2 bucket
//     vector: <name>_bucket<i> per-scrape increments, which preserve
//     the full distribution shape over time instead of three quantile
//     cuts of it
//
// Series order is fixed at construction and identical for every scrape,
// so a scrape appends exactly one value to every ring buffer and sealed
// windows are column-aligned across series.
package metricstore

import (
	"fmt"

	"github.com/goalp/alp/internal/obs"
)

// seriesNames returns the schema, in stable order.
func seriesNames(includeBuckets bool) []string {
	var names []string
	for _, c := range (obs.Snapshot{}).Counters() {
		names = append(names, c.Name)
	}
	for i := 0; i < int(obs.NumHists); i++ {
		base := obs.HistName(obs.HistID(i))
		for _, m := range (obs.HistSnapshot{}).Flats(base) {
			names = append(names, m.Name)
		}
		if includeBuckets {
			for b := 0; b < obs.HistBuckets; b++ {
				names = append(names, fmt.Sprintf("%s_bucket%d", base, b))
			}
		}
	}
	return names
}

// extractSamples appends one sample per series (in seriesNames order)
// to dst, diffing cur against prev. On the first scrape prev is the
// zero snapshot, so the first deltas are the totals accumulated since
// the process (or collector) started.
func extractSamples(dst []float64, cur, prev obs.Snapshot, includeBuckets bool) []float64 {
	for i := range cur.Counts {
		dst = append(dst, float64(obs.CounterDelta(cur.Counts[i], prev.Counts[i])))
	}
	for i := 0; i < int(obs.NumHists); i++ {
		d := cur.Hists[i].Delta(prev.Hists[i])
		dst = append(dst,
			float64(d.Count),
			float64(d.SumNs),
			float64(cur.Hists[i].P50()),
			float64(cur.Hists[i].P95()),
			float64(cur.Hists[i].P99()),
			float64(cur.Hists[i].MaxNs),
		)
		if includeBuckets {
			for b := 0; b < obs.HistBuckets; b++ {
				dst = append(dst, float64(d.Buckets[b]))
			}
		}
	}
	return dst
}
