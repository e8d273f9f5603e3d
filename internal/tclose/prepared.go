package tclose

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/emd"
	"repro/internal/micro"
)

// Prepared is the reusable per-table substrate shared by the three
// algorithms: the normalized quasi-identifier geometry (one flat
// stride-indexed Matrix, read by the hot distance scans and the centroid
// computations), one EMD space per confidential attribute, the packed
// per-record confidential-bin signatures, and lazily materialized derived
// state (the confidential ranking, partition caches). Preparing once and running many (k, t)
// parameter points against the same Prepared is the whole point of the
// engine API: a parameter sweep stops paying the O(n·log n) substrate
// build — and, where a partition depends only on k, the partition itself —
// once per point.
//
// A Prepared is safe for concurrent runs: everything built by Prepare is
// immutable afterwards, and the lazy pieces are guarded internally.
type Prepared struct {
	table  *dataset.Table
	mat    *micro.Matrix
	spaces []*emd.Space
	norm   dataset.NormParams

	// sigs holds each record's confidential-bin tuple packed into one
	// uint64 (mixed radix over the spaces' bin counts); nil when the
	// product of bin counts overflows, in which case signature-based
	// deduplication is skipped (a pure optimization, never a semantic
	// change). Records with equal signatures are interchangeable for every
	// EMD computation.
	sigs      []uint64
	sigDomain uint64

	// confOrder is the record order by (first confidential value, row),
	// the ranking Algorithm 3's subsets and SABRE's buckets are defined
	// over; sorted once on first demand.
	confOnce  sync.Once
	confOrder []int

	// Partition caches: MDAV partitions depend only on k, and Algorithm 3
	// partitions only on the effective cluster size, so a (k, t) sweep
	// reuses them across t points. Guarded by cacheMu; cached cluster row
	// slices are never handed out for mutation (Algorithm 1's merge copies
	// rows, Algorithm 3 returns deep copies).
	cacheMu sync.Mutex
	mdavByK map[int][]micro.Cluster
	alg3ByK map[int]alg3Cached
}

type alg3Cached struct {
	clusters []micro.Cluster
	maxEMD   float64
}

// Run carries the per-invocation execution options of a prepared
// algorithm run. The zero value runs to completion without reporting.
type Run struct {
	// Ctx cancels the run between partition, merge and refinement steps;
	// the algorithm then returns Ctx.Err(). nil means context.Background.
	Ctx context.Context
	// Progress, when non-nil, receives coarse-grained progress events from
	// the partition and merge loops. It is called synchronously on the
	// run's goroutine and must be fast.
	Progress ProgressFunc
}

// Progress is one progress event of a run.
type Progress struct {
	// Phase names the loop reporting: "partition" or "merge".
	Phase string
	// Done counts completed work units (records clustered, merges done).
	Done int
	// Total is the known total for the phase, 0 when unbounded (merges).
	Total int
}

// ProgressFunc receives progress events; see Run.
type ProgressFunc func(Progress)

// Prepare validates the table and builds the shared substrate. The table
// must not be mutated while the Prepared is in use.
func Prepare(t *dataset.Table) (*Prepared, error) {
	if t == nil || t.Len() == 0 {
		return nil, ErrNoRecords
	}
	if err := t.Schema().Validate(); err != nil {
		return nil, err
	}
	return extend(nil, t)
}

// Table returns the table the substrate was prepared over.
func (p *Prepared) Table() *dataset.Table { return p.table }

// Matrix returns the normalized quasi-identifier matrix. Callers may tune
// it (micro.Matrix.SetTuning, EnableIndexCache) before the Prepared is
// shared, and must treat it as read-only afterwards.
func (p *Prepared) Matrix() *micro.Matrix { return p.mat }

// Spaces returns the per-confidential-attribute EMD spaces (read-only).
func (p *Prepared) Spaces() []*emd.Space { return p.spaces }

// ConfOrder returns the records sorted by (first confidential value, row) —
// the ranking Algorithm 3 and SABRE bucket over — materializing it on first
// call. The returned slice is shared and must not be modified.
func (p *Prepared) ConfOrder() []int {
	p.confOnce.Do(func() {
		confCol := p.table.Schema().Confidentials()[0]
		conf := p.table.ColumnView(confCol)
		order := micro.AllRows(p.table.Len())
		sort.Slice(order, func(i, j int) bool {
			if conf[order[i]] != conf[order[j]] {
				return conf[order[i]] < conf[order[j]]
			}
			return order[i] < order[j]
		})
		p.confOrder = order
	})
	return p.confOrder
}

// initSignatures packs every record's confidential bin tuple into one
// uint64 (mixed radix over the spaces' bin counts).
func (p *Prepared) initSignatures() {
	radix := make([]uint64, len(p.spaces))
	prod := uint64(1)
	for i := len(p.spaces) - 1; i >= 0; i-- {
		radix[i] = prod
		m := uint64(p.spaces[i].Bins())
		if m != 0 && prod > math.MaxUint64/m {
			return // overflow: leave sigs nil, dedup disabled
		}
		prod *= m
	}
	sigs := make([]uint64, p.table.Len())
	for i, s := range p.spaces {
		for rec := range sigs {
			sigs[rec] += uint64(s.Bin(rec)) * radix[i]
		}
	}
	p.sigs = sigs
	p.sigDomain = prod
}

// Extend returns a Prepared over the extended table, whose first
// p.Table().Len() records must be exactly the records the receiver was
// prepared over (same schema, values appended behind them). It recomputes
// only invalidated pieces: EMD spaces extend incrementally (emd.Space
// .Extend), and when no appended value widens a quasi-identifier's min-max
// range only the appended rows are normalized. Everything — spaces,
// matrix, and therefore every partition — is bit-identical to a cold
// Prepare over the extended table. Tuning and an enabled index cache carry
// over to the new matrix (with a fresh, unbuilt master); partition caches
// and the confidential ranking start cold, since every row set change
// invalidates them.
func (p *Prepared) Extend(t *dataset.Table) (*Prepared, error) {
	if t == nil || t.Len() < p.table.Len() {
		return nil, errors.New("tclose: extended table is shorter than the prepared one")
	}
	if !t.Schema().Equal(p.table.Schema()) {
		return nil, errors.New("tclose: extended table has a different schema")
	}
	return extend(p, t)
}

// extend is the one substrate constructor: it builds the Prepared over t
// from prev, the substrate of t's first prev.Table().Len() records. A nil
// prev stands for zero records, which is Prepare. The quasi-identifier
// columns are normalized straight into the matrix backing — only the
// appended rows when the min-max frame is unchanged (every earlier row is
// then bit-identical and copied), all of them when it moved.
func extend(prev *Prepared, t *dataset.Table) (*Prepared, error) {
	old := 0
	if prev != nil {
		old = prev.table.Len()
	}
	// Numeric (and ordinal, if encoded as numbers) confidential attributes
	// use the paper's ordered-distance EMD; nominal categorical attributes
	// use the equal-ground-distance (total variation) EMD, implementing the
	// categorical extension the paper's conclusions call for.
	cols := t.Schema().Confidentials()
	spaces := make([]*emd.Space, len(cols))
	for i, c := range cols {
		var s *emd.Space
		var err error
		switch {
		case prev != nil:
			s, err = prev.spaces[i].Extend(t.ColumnView(c)[old:])
		case t.Schema().Attr(c).Kind == dataset.Categorical:
			s, err = emd.NewNominalSpace(t.ColumnView(c))
		default:
			s, err = emd.NewSpace(t.ColumnView(c))
		}
		if err != nil {
			return nil, fmt.Errorf("tclose: building EMD space for %q: %w",
				t.Schema().Attr(c).Name, err)
		}
		spaces[i] = s
	}
	norm := t.QINormParams()
	dim := len(norm.Mins)
	data := make([]float64, t.Len()*dim)
	from := 0
	if prev != nil && norm.Equal(prev.norm) {
		copy(data, prev.mat.Rows(0, old))
		from = old
	}
	t.NormalizeQIInto(data[from*dim:], from, t.Len(), norm)
	mat := micro.NewMatrixFlat(data, dim)
	if prev != nil {
		mat.SetTuning(prev.mat.TuningOf())
		if prev.mat.IndexCacheEnabled() {
			mat.EnableIndexCache()
		}
	}
	out := &Prepared{table: t, mat: mat, spaces: spaces, norm: norm}
	out.initSignatures()
	return out, nil
}
