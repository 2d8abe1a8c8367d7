// Relation views over an already-compressed column. BuildALP re-encodes
// raw values partition-at-a-time; a service that ingested a column
// through the streaming Writer already holds the compressed
// representation and must not round-trip it through floats just to
// scan it. BuildALPFromColumn wraps one shared *format.Column as a
// Relation whose partitions are per-row-group views: each partition
// addresses its own global vector range, so morsel-parallel scans,
// zone-map skipping and encoded-domain pushdown all work unchanged,
// and a single-threaded FilterAgg folds rows in position order —
// bit-identical to scanning the same values in process.

package engine

import (
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/vector"
)

// alpViewPartition is one row-group of a shared compressed column. The
// column is immutable; concurrent views decode through caller-owned
// buffers, so any number of scan workers may touch sibling views.
type alpViewPartition struct {
	col      *format.Column
	firstVec int // global index of the row-group's first vector
	numVecs  int
	n        int // values in the row-group
}

func (p *alpViewPartition) Len() int { return p.n }

func (p *alpViewPartition) SizeBytes() int {
	g := p.firstVec / vector.RowGroupVectors
	return p.col.RowGroups[g].SizeBits() / 8
}

func (p *alpViewPartition) Scan(buf []float64, emit func([]float64)) {
	scratch := make([]int64, vector.Size)
	for i := p.firstVec; i < p.firstVec+p.numVecs; i++ {
		n := p.col.DecodeVector(i, buf, scratch)
		emit(buf[:n])
	}
}

// FilterAgg implements PushdownScanner over the view's vector range:
// zone maps skip, surviving decimal-scheme vectors run the fused
// unpack+compare kernel, qualifying rows fold in position order.
func (p *alpViewPartition) FilterAgg(pred Predicate, bufs *filterBufs, a *Agg) int {
	o := obs.Active()
	touched := 0
	skipped := 0
	var batch obs.ScanBatch
	for i := p.firstVec; i < p.firstVec+p.numVecs; i++ {
		if p.col.Zones != nil && !p.col.Zones.MayContain(i, pred.Lo, pred.Hi) {
			skipped++
			continue
		}
		n, pd := p.col.FilterGatherVector(i, pred.Lo, pred.Hi, bufs.sel[:], bufs.out, bufs.scratch)
		batch.Vector(n, pd)
		touched++
		a.fold(bufs.out[:n])
	}
	o.Add(obs.VectorsSkipped, int64(skipped))
	o.FlushScanBatch(&batch)
	return touched
}

// FilterCount implements PushdownScanner without gathering.
func (p *alpViewPartition) FilterCount(pred Predicate, bufs *filterBufs) (int64, int) {
	o := obs.Active()
	var count int64
	touched := 0
	skipped := 0
	var batch obs.ScanBatch
	for i := p.firstVec; i < p.firstVec+p.numVecs; i++ {
		if p.col.Zones != nil && !p.col.Zones.MayContain(i, pred.Lo, pred.Hi) {
			skipped++
			continue
		}
		n, pd := p.col.FilterVector(i, pred.Lo, pred.Hi, bufs.sel[:], bufs.out, bufs.scratch)
		batch.Vector(n, pd)
		touched++
		count += int64(n)
	}
	o.Add(obs.VectorsSkipped, int64(skipped))
	o.FlushScanBatch(&batch)
	return count, touched
}

// BuildALPFromColumn wraps an already-compressed column as a Relation
// with one partition per row-group, sharing the column's storage. No
// re-encode, no decode: scans and filtered aggregates read the same
// bytes the column was ingested as.
func BuildALPFromColumn(name string, col *format.Column) *Relation {
	r := &Relation{Name: name, N: col.N}
	for g := range col.RowGroups {
		rg := &col.RowGroups[g]
		r.Parts = append(r.Parts, &alpViewPartition{
			col:      col,
			firstVec: g * vector.RowGroupVectors,
			numVecs:  vector.VectorsIn(rg.N),
			n:        rg.N,
		})
	}
	return r
}
