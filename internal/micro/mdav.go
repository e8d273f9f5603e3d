package micro

import "context"

// MDAV (Maximum Distance to AVerage) is the fixed-size multivariate
// microaggregation heuristic of Domingo-Ferrer and Mateo-Sanz used as the
// baseline partitioner in the paper (cost O(n^2/k)).
//
// While at least 3k records remain, MDAV finds the record xr farthest from
// the centroid of the remaining records and the record xs farthest from xr,
// and forms one cluster of the k records nearest to each. When between 2k
// and 3k-1 records remain, a cluster is formed around the record farthest
// from the centroid and the rest form the final cluster. When fewer than 2k
// remain, they all join a single final cluster.
//
// MDAV partitions points (a row-major matrix of normalized quasi-identifier
// vectors) into clusters of size at least k. If len(points) < 2k the result
// is a single cluster containing every record.
//
// The implementation keeps the remaining-set centroid as a running sum
// (O(k·dim) to update per extracted cluster instead of an O(n·dim) rescan),
// selects the k nearest records by partial selection instead of a full
// sort, and routes the Farthest/KNearest queries through a Searcher: a
// deletable k-d tree over the normalized QI cube for large inputs
// (subquadratic rounds at any dimensionality), the flat linear scan below
// the matrix's index crossover. Extracted records are marked in a
// row-indexed bitmap; the remaining-row slice is compacted only when a
// linear reader needs it exact — an unindexed Searcher, the exact centroid
// of a small remainder, the final cluster — so an indexed round costs no
// O(n) filtering pass.
func MDAV(points [][]float64, k int) ([]Cluster, error) {
	return MDAVMatrix(NewMatrix(points), k)
}

// MDAVMatrix is MDAV over an already-flattened point matrix.
func MDAVMatrix(m *Matrix, k int) ([]Cluster, error) {
	return MDAVMatrixCtx(context.Background(), m, k)
}

// MDAVMatrixCtx is MDAVMatrix with cooperative cancellation, checked once
// per cluster-extraction round (each round costs O(n·dim) at most), so an
// abandoned run stops within one round and returns ctx.Err().
func MDAVMatrixCtx(ctx context.Context, m *Matrix, k int) ([]Cluster, error) {
	n := m.N()
	if n == 0 {
		return nil, ErrEmpty
	}
	if k < 1 {
		return nil, ErrBadK
	}
	if ctx == nil {
		ctx = context.Background()
	}
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	rc := NewRunningCentroid(m)
	search := m.NewSearcher(remaining)
	// remaining keeps extracted rows (marked in dead) until exact() drops
	// them; rc counts the rows still unclustered.
	dead := make([]bool, n)
	exact := func() []int {
		if len(remaining) > rc.Count() {
			remaining = CompactRows(remaining, dead)
		}
		return remaining
	}
	centroid := func() []float64 {
		if rc.RowsNeeded() {
			exact()
		}
		return rc.CentroidOf(remaining)
	}
	extract := func(seed []float64) []int {
		if !search.Indexed() {
			exact()
		}
		xr := search.Farthest(remaining, seed)
		cluster := search.KNearest(remaining, m.Row(xr), k)
		for _, r := range cluster {
			dead[r] = true
		}
		rc.RemoveRows(cluster)
		search.Remove(cluster)
		return cluster
	}
	var clusters []Cluster
	for rc.Count() >= 3*k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cluster1 := extract(centroid())
		// The paper seeds the second cluster at the record farthest from the
		// first seed, which is cluster1[0] (distance 0 to itself).
		cluster2 := extract(m.Row(cluster1[0]))
		clusters = append(clusters, Cluster{Rows: cluster1}, Cluster{Rows: cluster2})
	}
	if rc.Count() >= 2*k {
		cluster1 := extract(centroid())
		clusters = append(clusters, Cluster{Rows: cluster1}, Cluster{Rows: exact()})
	} else if rc.Count() > 0 {
		clusters = append(clusters, Cluster{Rows: exact()})
	}
	return clusters, nil
}
