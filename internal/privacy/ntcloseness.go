package privacy

import (
	"errors"
	"sort"

	"repro/internal/dataset"
	"repro/internal/emd"
	"repro/internal/micro"
)

// (n,t)-closeness (Li, Li & Venkatasubramanian, TKDE 2010) relaxes
// t-closeness: an equivalence class E satisfies (n,t)-closeness if there is
// a "natural" superset of records containing E, with at least n records,
// whose confidential-attribute distribution is within EMD t of E's. The
// paper notes its algorithms "are easily adaptable to (n,t)-closeness";
// this file provides the corresponding verifier so adopters can check
// releases against the relaxed model too.
//
// Following the original proposal, the natural superset of a class is taken
// to be its quasi-identifier neighborhood: the nMin records closest (in
// normalized QI space) to the class centroid, which always includes the
// class itself.

// NTClosenessOf returns the (nMin, t)-closeness level of a partition: the
// maximum over classes and confidential attributes of the EMD between the
// class distribution and its nMin-record QI-neighborhood distribution. The
// release satisfies (nMin, t)-closeness for any t at or above the returned
// level. When nMin >= the table size, this degenerates to plain
// t-closeness.
func NTClosenessOf(t *dataset.Table, classes []micro.Cluster, nMin int) (float64, error) {
	if t.Len() == 0 {
		return 0, ErrNoRecords
	}
	if nMin < 1 {
		return 0, errors.New("privacy: n must be at least 1")
	}
	if nMin > t.Len() {
		nMin = t.Len()
	}
	confs := t.Schema().Confidentials()
	if len(confs) == 0 {
		return 0, errors.New("privacy: schema has no confidential attributes")
	}
	points := t.QIMatrix()
	all := make([]int, t.Len())
	for i := range all {
		all[i] = i
	}
	worst := 0.0
	for _, col := range confs {
		vals := t.ColumnView(col)
		for _, class := range classes {
			neighborhood := qiNeighborhood(points, all, class, nMin)
			// Build a local space over the neighborhood's values: the
			// reference distribution of (n,t)-closeness is the
			// neighborhood, not the full table.
			local := make([]float64, len(neighborhood))
			for i, r := range neighborhood {
				local[i] = vals[r]
			}
			space, err := emd.NewSpace(local)
			if err != nil {
				return 0, err
			}
			// Class rows mapped to positions in the local space.
			pos := make(map[int]int, len(neighborhood))
			for i, r := range neighborhood {
				pos[r] = i
			}
			rows := make([]int, 0, len(class.Rows))
			for _, r := range class.Rows {
				if p, ok := pos[r]; ok {
					rows = append(rows, p)
				}
			}
			if d := space.EMDOf(rows); d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

// qiNeighborhood returns the nMin rows nearest to the class centroid,
// guaranteeing that every class member is included (swapping out the
// farthest non-members if needed).
func qiNeighborhood(points [][]float64, all []int, class micro.Cluster, nMin int) []int {
	if nMin < len(class.Rows) {
		nMin = len(class.Rows)
	}
	centroid := micro.Centroid(points, class.Rows)
	type rd struct {
		row int
		d   float64
	}
	ds := make([]rd, len(all))
	for i, r := range all {
		ds[i] = rd{row: r, d: micro.Dist2(points[r], centroid)}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].d != ds[j].d {
			return ds[i].d < ds[j].d
		}
		return ds[i].row < ds[j].row
	})
	member := make(map[int]bool, len(class.Rows))
	for _, r := range class.Rows {
		member[r] = true
	}
	out := make([]int, 0, nMin)
	included := make(map[int]bool, nMin)
	for _, e := range ds[:nMin] {
		out = append(out, e.row)
		included[e.row] = true
	}
	// Ensure class members are present: replace the farthest non-members.
	missing := make([]int, 0)
	for _, r := range class.Rows {
		if !included[r] {
			missing = append(missing, r)
		}
	}
	for i := len(out) - 1; i >= 0 && len(missing) > 0; i-- {
		if !member[out[i]] {
			out[i] = missing[len(missing)-1]
			missing = missing[:len(missing)-1]
		}
	}
	return out
}
