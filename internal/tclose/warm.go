package tclose

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/micro"
)

// WarmSeed is a previous epoch's partition mapped into the current epoch's
// row numbering, the starting point of a warm-start re-anonymization. The
// engine layer (internal/core) builds seeds from its warm partition cache:
// append epochs leave row ids untouched, deletion epochs remap survivors and
// drop tombstoned rows, marking every cluster that lost a member Dirty.
type WarmSeed struct {
	// Clusters is the seed partition over current row ids. Rows of the
	// current table not covered by any cluster are treated as appended since
	// the seed epoch and assigned to their nearest cluster. Empty clusters
	// (fully tombstoned) are skipped.
	Clusters []micro.Cluster
	// Dirty flags clusters that lost rows to deletion epochs; they join the
	// repair frontier even if they received no appended rows.
	Dirty []bool
	// EffectiveK is the cluster size the seed run enforced (the Eq. 3-4
	// adjusted k' for Algorithm 3, the plain k otherwise). Repair enforces
	// max(EffectiveK, k).
	EffectiveK int
}

// WarmStats quantifies how much work a warm-start repair actually did — the
// evidence that re-run cost is proportional to the delta, surfaced through
// core.Result and the serving layer's /metrics.
type WarmStats struct {
	// SeedClusters is the number of non-empty seed clusters.
	SeedClusters int
	// Assigned is the number of uncovered (appended) rows assigned to their
	// nearest seed cluster.
	Assigned int
	// Folded is the number of undersized clusters folded into their
	// QI-nearest neighbor.
	Folded int
	// Split is the number of oversized clusters re-partitioned by MDAV.
	Split int
	// Repaired is the number of dirty t-violating clusters dissolved into
	// the swap re-extraction pool (k-anonymity-first repair only).
	Repaired int
	// ScopeRows is the number of distinct rows inside the repair frontier:
	// assigned rows plus every row of a folded, split, or dissolved cluster.
	// Rows of clean clusters are never touched before the finishing merge.
	ScopeRows int
}

// ErrBadSeed rejects warm seeds that do not partition a subset of the
// current table's rows.
var ErrBadSeed = errors.New("tclose: invalid warm seed")

// WarmRepair re-anonymizes the current table starting from a previous
// epoch's partition instead of from scratch: uncovered rows are assigned to
// their QI-nearest seed cluster, undersized clusters (deletion damage) are
// folded into their nearest neighbor, oversized clusters are re-split with
// MDAV, and — when swapRepair is set, the k-anonymity-first repair —
// dirty clusters still beyond t are dissolved into a pool and re-extracted
// with the same swap refinement a cold Algorithm 2 run uses. The finishing
// merge loop of Algorithm 1 then restores the t-closeness guarantee exactly
// as it does for every cold run, so the result always satisfies
// k-anonymity (at the seed's effective k) and t-closeness; only utility,
// not privacy, depends on the seed's quality.
//
// The repair touches only the affected frontier (WarmStats.ScopeRows):
// clean clusters are carried over untouched, which is what makes a small
// append re-run cost proportional to the delta rather than the table.
func (prep *Prepared) WarmRepair(run Run, k int, tLevel float64, seed WarmSeed, swapRepair bool) (*Result, *WarmStats, error) {
	p, err := prep.newRun(run, k, tLevel)
	if err != nil {
		return nil, nil, err
	}
	effK := seed.EffectiveK
	if effK < p.k {
		effK = p.k
	}
	n := p.table.Len()

	// Validate the seed and copy the live clusters: the repair mutates row
	// slices freely, the caller's seed must survive intact.
	covered := make([]bool, n)
	var rows [][]int
	var dirty []bool
	touched := make([]bool, n) // repair frontier membership
	for ci, c := range seed.Clusters {
		if len(c.Rows) == 0 {
			continue
		}
		for _, r := range c.Rows {
			if r < 0 || r >= n {
				return nil, nil, fmt.Errorf("%w: row %d out of range [0,%d)", ErrBadSeed, r, n)
			}
			if covered[r] {
				return nil, nil, fmt.Errorf("%w: row %d in two clusters", ErrBadSeed, r)
			}
			covered[r] = true
		}
		rows = append(rows, append([]int(nil), c.Rows...))
		d := ci < len(seed.Dirty) && seed.Dirty[ci]
		dirty = append(dirty, d)
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("%w: no non-empty clusters", ErrBadSeed)
	}
	stats := &WarmStats{SeedClusters: len(rows)}

	// added counts rows assigned to each cluster, the pile-up measure the
	// split pass triggers on.
	added := make([]int, len(rows))

	// Assign every uncovered (appended) row to the cluster whose seed
	// centroid is QI-nearest. Targets are the pre-assignment centroids, so
	// the result is independent of assignment order; ties break toward the
	// lower cluster index via the Searcher's (distance, index) order.
	var newRows []int
	for r := 0; r < n; r++ {
		if !covered[r] {
			newRows = append(newRows, r)
		}
	}
	if len(newRows) > 0 {
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		cents := make([][]float64, len(rows))
		for i, rs := range rows {
			cents[i] = p.mat.CentroidRows(rs, nil)
		}
		cm := micro.NewMatrix(cents)
		cm.SetTuning(p.mat.TuningOf())
		idxs := micro.AllRows(len(cents))
		search := cm.NewSearcher(idxs)
		for done, r := range newRows {
			if done%256 == 0 {
				if err := p.interrupted(); err != nil {
					return nil, nil, err
				}
				p.reportProgress("repair", done, len(newRows))
			}
			ci := search.Nearest(idxs, p.mat.Row(r))
			rows[ci] = append(rows[ci], r)
			dirty[ci] = true
			added[ci]++
			touched[r] = true
		}
		stats.Assigned = len(newRows)
	}

	// Fold undersized clusters (deletion damage) into their QI-nearest live
	// neighbor.
	alive, folds, err := p.foldUndersized(rows, effK, func(small, into int) {
		for _, r := range rows[small] {
			touched[r] = true
		}
		dirty[into] = true
	})
	if err != nil {
		return nil, nil, err
	}
	stats.Folded = folds

	// Re-split clusters where assigned rows piled up — at least a full
	// cluster's worth, and at least as many as the rows carried over — with
	// MDAV, so a hot spot in the appended delta cannot degrade utility.
	// Absolute size is deliberately not the trigger: large clusters built
	// by the seed's own merge step are legitimate, and a handful of
	// assignments into one must not re-partition it, or a local repair
	// would turn into a global rerun.
	for i := 0; i < len(added); i++ {
		if !alive[i] || added[i] < effK || added[i]*2 < len(rows[i]) || len(rows[i]) < 2*effK {
			continue
		}
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		parts, err := p.mdavRows(rows[i], effK, p.mat.TuningOf())
		if err != nil {
			return nil, nil, err
		}
		for _, r := range rows[i] {
			touched[r] = true
		}
		rows[i] = parts[0].Rows
		for _, part := range parts[1:] {
			rows = append(rows, part.Rows)
			dirty = append(dirty, true)
			alive = append(alive, true)
		}
		stats.Split++
	}

	// Swap-based repair (the k-anonymity-first mode): dirty clusters still
	// beyond t are dissolved into one pool and re-extracted with the same
	// GenerateCluster refinement a cold Algorithm 2 run uses, confined to
	// the frontier instead of the table. Only meaningful when the enforced
	// cluster size is the run's own k (it always is for Algorithm 2).
	var swaps int
	if swapRepair && effK == p.k {
		var pool []int
		for i := range rows {
			if !alive[i] || !dirty[i] {
				continue
			}
			if err := p.interrupted(); err != nil {
				return nil, nil, err
			}
			if p.clusterEMD(rows[i]) <= p.t {
				continue
			}
			pool = append(pool, rows[i]...)
			alive[i] = false
			rows[i] = nil
			stats.Repaired++
		}
		if len(pool) > 0 {
			slices.Sort(pool)
			for _, r := range pool {
				touched[r] = true
			}
			reclusters, s, err := p.kAnonymityFirstPartition(pool)
			if err != nil {
				return nil, nil, err
			}
			swaps = s
			for _, c := range reclusters {
				rows = append(rows, c.Rows)
				alive = append(alive, true)
			}
		}
	}

	for r := 0; r < n; r++ {
		if touched[r] {
			stats.ScopeRows++
		}
	}

	// Algorithm 1's merge loop, the one every cold Algorithm 1/2 run
	// finishes with, restores the t-closeness guarantee over the whole
	// partition: clean clusters whose EMD drifted over t under the shifted
	// data set distribution are handled here too.
	final := make([]micro.Cluster, 0, len(rows))
	for i := range rows {
		if alive[i] {
			final = append(final, micro.Cluster{Rows: rows[i]})
		}
	}
	merged, merges, maxEMD, err := p.mergeUntilTClose(final)
	if err != nil {
		return nil, nil, err
	}
	return &Result{
		Clusters:   merged,
		MaxEMD:     maxEMD,
		Merges:     merges,
		Swaps:      swaps,
		EffectiveK: effK,
	}, stats, nil
}

// mdavRows partitions the given table rows with MDAV at cluster size k,
// over a sub-matrix of their points with tuning tun, and maps the clusters
// back to table rows.
func (p *problem) mdavRows(rows []int, k int, tun micro.Tuning) ([]micro.Cluster, error) {
	pts := make([][]float64, len(rows))
	for j, r := range rows {
		pts[j] = p.mat.Row(r)
	}
	sub := micro.NewMatrix(pts)
	sub.SetTuning(tun)
	parts, err := micro.MDAV(p.run.Ctx, sub, k)
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		for j, lr := range part.Rows {
			part.Rows[j] = rows[lr]
		}
	}
	return parts, nil
}

// foldUndersized folds every cluster smaller than minSize into the live
// cluster whose QI centroid is nearest its own (ties toward the lower
// index), until none is left or one cluster remains, and returns which
// clusters are still alive and the number of folds. The scan resumes at
// the last folded index: folds only grow clusters, so no cluster before it
// can have become undersized, and the order matches a restart from the
// lowest index. The undersized population is bounded by the clusters
// deletions or degenerate shards touched, not the table. Centroids are
// computed once, at the first fold; afterwards only the absorbing
// cluster's is recomputed from its rows. Because Matrix.CentroidRows is a
// pure function of the row list, every distance equals a per-fold
// recomputation bit for bit. onFold sees each fold before the small
// cluster's rows move.
func (p *problem) foldUndersized(rows [][]int, minSize int, onFold func(small, into int)) ([]bool, int, error) {
	alive := make([]bool, len(rows))
	for i := range alive {
		alive[i] = true
	}
	var cents [][]float64
	folds, small := 0, 0
	for {
		if err := p.interrupted(); err != nil {
			return nil, folds, err
		}
		for ; small < len(rows); small++ {
			if alive[small] && len(rows[small]) < minSize {
				break
			}
		}
		if small == len(rows) || len(rows)-folds <= 1 {
			return alive, folds, nil
		}
		if cents == nil {
			cents = make([][]float64, len(rows))
			for i, rs := range rows {
				if alive[i] {
					cents[i] = p.mat.CentroidRows(rs, nil)
				}
			}
		}
		best, bestD := -1, 0.0
		for j := range rows {
			if !alive[j] || j == small {
				continue
			}
			if d := micro.Dist2(cents[small], cents[j]); best < 0 || d < bestD {
				best, bestD = j, d
			}
		}
		if best < 0 {
			return alive, folds, nil
		}
		onFold(small, best)
		rows[best] = append(rows[best], rows[small]...)
		cents[best] = p.mat.CentroidRows(rows[best], cents[best])
		alive[small] = false
		rows[small] = nil
		cents[small] = nil
		folds++
	}
}
