// Package generalization implements the generalization/recoding baseline
// the paper argues against: Mondrian multidimensional partitioning (LeFevre
// et al., ICDE 2006) for k-anonymity, and its t-closeness adaptation in the
// style of Li et al. (the "Closeness" paper's Mondrian extension referenced
// in Section 3).
//
// Mondrian recursively splits the record set at the median of the
// quasi-identifier with the widest normalized range; a split is allowed only
// if both halves keep at least k records (and, in the t-closeness variant,
// both halves stay within EMD t of the global confidential distribution).
// The release recodes each quasi-identifier to the midpoint of its range in
// the leaf partition, modelling generalization's loss of granularity, which
// lets the benchmark suite compare SSE against microaggregation on equal
// terms.
package generalization

import (
	"context"
	"errors"
	"sort"

	"repro/internal/dataset"
	"repro/internal/emd"
	"repro/internal/micro"
)

// ErrBadK mirrors micro.ErrBadK for the Mondrian entry points.
var ErrBadK = errors.New("generalization: k must be at least 1")

// Mondrian partitions the table's records into equivalence classes of at
// least k records using median-cut multidimensional partitioning on the
// quasi-identifiers.
func Mondrian(t *dataset.Table, k int) ([]micro.Cluster, error) {
	return mondrian(context.Background(), t, k, nil, 0)
}

// MondrianTPrepared partitions like Mondrian but additionally enforces
// t-closeness: a split is performed only when both halves keep their
// confidential distribution within EMD tLevel of the whole data set. The
// root partition trivially satisfies t-closeness (EMD 0), so the result
// always carries the guarantee — at the cost of coarse partitions for small
// t. Cancellation is checked once per recursive split.
//
// spaces are the ordered-distance EMD spaces, one per confidential
// attribute in schema order, which the engine prepares once per table. nil
// spaces are built here — the engine's path for nominal confidentials,
// whose prepared spaces use the nominal distance; supplying nominal spaces
// is a caller bug (this baseline's t check is defined over the ordered
// distance).
func MondrianTPrepared(ctx context.Context, t *dataset.Table, k int, tLevel float64, spaces []*emd.Space) ([]micro.Cluster, error) {
	if spaces == nil {
		confs := t.Schema().Confidentials()
		spaces = make([]*emd.Space, len(confs))
		for i, c := range confs {
			s, err := emd.NewSpace(t.ColumnView(c))
			if err != nil {
				return nil, err
			}
			spaces[i] = s
		}
	}
	return mondrian(ctx, t, k, spaces, tLevel)
}

func mondrian(ctx context.Context, t *dataset.Table, k int, spaces []*emd.Space, tLevel float64) ([]micro.Cluster, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	if t.Len() == 0 {
		return nil, micro.ErrEmpty
	}
	if ctx == nil {
		ctx = context.Background()
	}
	qis := t.Schema().QuasiIdentifiers()
	cols := make([][]float64, len(qis))
	ranges := make([]float64, len(qis))
	for j, c := range qis {
		cols[j] = t.ColumnView(c)
		st := t.Stats(c)
		if st.Max > st.Min {
			ranges[j] = st.Max - st.Min
		} else {
			ranges[j] = 1
		}
	}
	all := make([]int, t.Len())
	for i := range all {
		all[i] = i
	}
	var clusters []micro.Cluster
	var splitErr error
	var split func(rows []int)
	split = func(rows []int) {
		if splitErr != nil {
			return
		}
		if err := ctx.Err(); err != nil {
			splitErr = err
			return
		}
		if len(rows) >= 2*k {
			if left, right, ok := bestCut(cols, ranges, rows, k); ok &&
				(spaces == nil || (within(spaces, left, tLevel) && within(spaces, right, tLevel))) {
				split(left)
				split(right)
				return
			}
		}
		clusters = append(clusters, micro.Cluster{Rows: rows})
	}
	split(all)
	if splitErr != nil {
		return nil, splitErr
	}
	return clusters, nil
}

// bestCut finds the widest (normalized) quasi-identifier dimension over the
// rows that admits a median cut leaving at least k records on each side.
// Dimensions are tried in decreasing width order until one admits a valid
// cut; ok is false when none does (e.g. all records identical).
func bestCut(cols [][]float64, ranges []float64, rows []int, k int) (left, right []int, ok bool) {
	type dimWidth struct {
		dim   int
		width float64
	}
	widths := make([]dimWidth, len(cols))
	for j := range cols {
		lo, hi := cols[j][rows[0]], cols[j][rows[0]]
		for _, r := range rows[1:] {
			v := cols[j][r]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		widths[j] = dimWidth{dim: j, width: (hi - lo) / ranges[j]}
	}
	sort.Slice(widths, func(i, j int) bool {
		if widths[i].width != widths[j].width {
			return widths[i].width > widths[j].width
		}
		return widths[i].dim < widths[j].dim
	})
	for _, w := range widths {
		if w.width == 0 {
			break
		}
		col := cols[w.dim]
		sorted := append([]int(nil), rows...)
		sort.Slice(sorted, func(a, b int) bool {
			if col[sorted[a]] != col[sorted[b]] {
				return col[sorted[a]] < col[sorted[b]]
			}
			return sorted[a] < sorted[b]
		})
		median := col[sorted[(len(sorted)-1)/2]]
		// Strict partition: values <= median left, > median right. Ties all
		// fall left, which can empty the right side; check both bounds.
		cut := len(sorted)
		for i, r := range sorted {
			if col[r] > median {
				cut = i
				break
			}
		}
		if cut >= k && len(sorted)-cut >= k {
			return sorted[:cut], sorted[cut:], true
		}
	}
	return nil, nil, false
}

func within(spaces []*emd.Space, rows []int, tLevel float64) bool {
	for _, s := range spaces {
		if s.EMDOf(rows) > tLevel {
			return false
		}
	}
	return true
}

// Aggregate produces the generalized release for a Mondrian partition: each
// quasi-identifier value is recoded to the midpoint of the attribute's range
// within its equivalence class (the numeric stand-in for publishing the
// range itself), identifiers are blanked, and other attributes are released
// unchanged.
func Aggregate(t *dataset.Table, clusters []micro.Cluster) (*dataset.Table, error) {
	if err := micro.CheckPartition(clusters, t.Len(), 1); err != nil {
		return nil, err
	}
	out := t.Clone()
	qis := t.Schema().QuasiIdentifiers()
	for _, c := range clusters {
		for _, col := range qis {
			lo, hi := t.Value(c.Rows[0], col), t.Value(c.Rows[0], col)
			for _, r := range c.Rows[1:] {
				v := t.Value(r, col)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			mid := (lo + hi) / 2
			for _, r := range c.Rows {
				out.SetValue(r, col, mid)
			}
		}
	}
	for _, col := range t.Schema().Indices(dataset.Identifier) {
		out.Redact(col)
	}
	return out, nil
}
