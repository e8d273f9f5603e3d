// Package micro implements multivariate microaggregation, the perturbative
// statistical-disclosure-control substrate on which the paper's t-closeness
// algorithms are built.
//
// Microaggregation has two steps (Section 2.3 of the paper): a partition
// step that groups the records into clusters of at least k similar records,
// and an aggregation step that replaces each record's quasi-identifier
// values by a cluster representative (the mean for numeric attributes, the
// median for categorical ones). Applying it to the quasi-identifier
// projection of a data set yields a k-anonymous data set.
//
// The package provides the MDAV partition heuristic (optimal multivariate
// microaggregation is NP-hard) and the aggregation step.
//
// # Performance
//
// MDAV — and, through the shared Searcher substrate, the t-closeness
// partitioners of package tclose and the SABRE baseline — run their hot
// neighbor queries (Farthest, Nearest, KNearest) against a deletable k-d
// tree over the normalized quasi-identifier cube instead of an
// O(remaining) linear scan per query:
//
//   - The tree (KDTree) is bucketed (kdLeafSize-record leaves scanned over
//     a tree-ordered contiguous coordinate copy), built once per partition
//     run in O(n·log n) by median selection — in parallel under the
//     matrix's worker budget for large inputs — and supports O(log n)
//     deletion via per-subtree alive counts, matching the partition loops
//     that retire k records per round.
//   - Nearest and KNearest prune subtrees with exact branch-and-bound
//     bounds: the bounding-box distance (exact in floating point by
//     per-dimension term domination and rounding monotonicity) combined
//     with a triangle-inequality annulus bound around a per-tree pivot
//     (conservatively rounded by kdEps), which retains pruning power in
//     higher dimensions where boxes alone degrade. Farthest scans the
//     rows in descending pivot distance and stops on the same kind of
//     triangle-inequality bound, so it prunes at every dimensionality.
//   - NewSearcher builds the tree only for candidate sets of at least the
//     matrix's index crossover (Tuning.IndexCrossover, 2048 rows by
//     default); below that the linear Matrix scans win and are used
//     directly. Tests force either path through Matrix.SetTuning.
//
// Determinism contract: every indexed query breaks ties in exact
// (distance, build rank) order, where build rank is the row's position in
// the slice the Searcher was built from. Partition loops only ever delete
// rows, so build-rank order always agrees with the relative order of the
// caller's shrinking candidate slice, and every query — and therefore every
// partition — is bit-identical between the indexed and linear paths. The
// property tests in kdtree_test.go enforce this, including after deletions
// and on adversarially duplicated point sets.
package micro

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dataset"
)

// Cluster is a group of record indices that will share their aggregated
// quasi-identifier values (an equivalence class of the k-anonymous output).
type Cluster struct {
	// Rows are indices into the originating table.
	Rows []int
}

// Size returns the number of records in the cluster.
func (c Cluster) Size() int { return len(c.Rows) }

// Partition-level errors.
var (
	ErrBadK  = errors.New("micro: minimum cluster size k must be at least 1")
	ErrEmpty = errors.New("micro: no records to partition")
)

// CheckPartition verifies that clusters form a partition of exactly n
// records with no duplicates and that every cluster has at least k records
// (except that a single cluster smaller than k is tolerated only when it is
// the entire data set and n < k). It is used by tests and by the privacy
// verifiers.
func CheckPartition(clusters []Cluster, n, k int) error {
	seen := make([]bool, n)
	total := 0
	for ci, c := range clusters {
		if len(c.Rows) < k && !(len(clusters) == 1 && n < k) {
			return fmt.Errorf("micro: cluster %d has %d records, want >= %d", ci, len(c.Rows), k)
		}
		for _, r := range c.Rows {
			if r < 0 || r >= n {
				return fmt.Errorf("micro: cluster %d contains out-of-range row %d", ci, r)
			}
			if seen[r] {
				return fmt.Errorf("micro: row %d appears in more than one cluster", r)
			}
			seen[r] = true
			total++
		}
	}
	if total != n {
		return fmt.Errorf("micro: clusters cover %d of %d records", total, n)
	}
	return nil
}

// SizeStats summarizes the cardinalities of a set of clusters; the paper's
// Tables 1-3 report the Min and the Avg ("actual microaggregation level").
type SizeStats struct {
	Min int
	Max int
	Avg float64
	Num int
}

// Sizes computes SizeStats over clusters. Empty input yields the zero value.
func Sizes(clusters []Cluster) SizeStats {
	if len(clusters) == 0 {
		return SizeStats{}
	}
	st := SizeStats{Min: clusters[0].Size(), Max: clusters[0].Size(), Num: len(clusters)}
	total := 0
	for _, c := range clusters {
		s := c.Size()
		total += s
		if s < st.Min {
			st.Min = s
		}
		if s > st.Max {
			st.Max = s
		}
	}
	st.Avg = float64(total) / float64(len(clusters))
	return st
}

// Dist2 returns the squared Euclidean distance between points a and b.
// Microaggregation only ever compares distances, so the square root is
// skipped everywhere.
func Dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Centroid returns the mean point of the given rows of a row-major matrix.
func Centroid(points [][]float64, rows []int) []float64 {
	if len(rows) == 0 || len(points) == 0 {
		return nil
	}
	dim := len(points[0])
	c := make([]float64, dim)
	for _, r := range rows {
		p := points[r]
		for j := 0; j < dim; j++ {
			c[j] += p[j]
		}
	}
	inv := 1.0 / float64(len(rows))
	for j := range c {
		c[j] *= inv
	}
	return c
}

// Aggregate performs the aggregation step: it returns a copy of t in which
// every quasi-identifier value is replaced by its cluster representative —
// the mean for numeric attributes, the (lower) median code for categorical
// attributes. Confidential and non-confidential attributes are left intact;
// identifier attributes are blanked to 0 (they must not be released).
func Aggregate(t *dataset.Table, clusters []Cluster) (*dataset.Table, error) {
	if err := CheckPartition(clusters, t.Len(), 1); err != nil {
		return nil, err
	}
	out := t.Clone()
	qis := t.Schema().QuasiIdentifiers()
	for _, c := range clusters {
		for _, col := range qis {
			rep := representative(t, c.Rows, col)
			for _, r := range c.Rows {
				out.SetValue(r, col, rep)
			}
		}
	}
	for _, col := range t.Schema().Indices(dataset.Identifier) {
		out.Redact(col)
	}
	return out, nil
}

func representative(t *dataset.Table, rows []int, col int) float64 {
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = t.Value(r, col)
	}
	if t.Schema().Attr(col).Kind == dataset.Categorical {
		// Median code: a value that exists in the dictionary, minimizing the
		// ordinal distance to the cluster members.
		sort.Float64s(vals)
		return vals[(len(vals)-1)/2]
	}
	return dataset.Mean(vals)
}
