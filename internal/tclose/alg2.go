package tclose

import (
	"repro/internal/emd"
	"repro/internal/micro"
)

// Algorithm2 runs the paper's Algorithm 2 (k-anonymity-first t-closeness
// aware microaggregation) against the prepared substrate, the way Section 8
// evaluates it: the k-anonymity-first partition is used as the
// microaggregation function inside Algorithm 1, so the merge step finishes
// off any clusters (typically the last ones, formed when few unclustered
// records remain) that the swap refinement could not bring within t. The
// result therefore always satisfies t-closeness.
//
// The swap refinement runs on the incremental EMD geometry of package emd
// (see the package Performance section): candidates come from one pass per
// cluster over a packed candidate set, eviction candidates are
// deduplicated by confidential-bin signature, candidates whose signature
// already failed against the current cluster state are skipped in O(1),
// and each surviving evaluation costs
// O(occΔ·log m) instead of the naive full-histogram walk. The
// k-anonymity-first partition depends on both k and t (the swap refinement
// targets t), so it is never cached.
func (prep *Prepared) Algorithm2(run Run, k int, tLevel float64) (*Result, error) {
	p, err := prep.newRun(run, k, tLevel)
	if err != nil {
		return nil, err
	}
	clusters, swaps, err := p.kAnonymityFirstPartition(micro.AllRows(p.table.Len()))
	if err != nil {
		return nil, err
	}
	merged, merges, maxEMD, err := p.mergeUntilTClose(clusters)
	if err != nil {
		return nil, err
	}
	return &Result{
		Clusters:   merged,
		MaxEMD:     maxEMD,
		Merges:     merges,
		Swaps:      swaps,
		EffectiveK: p.k,
	}, nil
}

// kAnonymityFirstPartition builds clusters over the rows of pool
// MDAV-style (around the record farthest from the centroid of the
// unclustered records, then around the record farthest from that one),
// refining each cluster with generateCluster before moving on. The pool is
// every row for a cold run, the repair frontier for WarmRepair and one k-d
// shard for Algorithm2Sharded; it must be in ascending row order, the tie
// order of every query, and is not modified. The centroid of the
// unclustered records is maintained incrementally (O(kd) per extracted
// cluster instead of an O(pool·d) rescan, exact below 128 rows), the
// farthest-seed queries run on a micro.Searcher — a deletable k-d tree over
// the normalized QI cube for large pools, the linear scans below the
// crossover — and the swap candidates come from one candidate set over the
// pool (candset.go). Extracted records are marked dead; the available-row
// slice is compacted only when a linear reader needs it exact (an
// unindexed Searcher, the exact centroid of a small remainder, the final
// cluster), as in MDAV. Cancellation is checked once per seed-pair round,
// so an abandoned run stops within two cluster extractions.
func (p *problem) kAnonymityFirstPartition(pool []int) ([]micro.Cluster, int, error) {
	avail := append([]int(nil), pool...)
	rc := micro.NewRunningCentroid(p.mat, avail)
	search := p.mat.NewSearcher(avail)
	// The paper's headline configuration (k = 2, one ordered confidential
	// attribute) runs on the interval-jump engine (see swapjump.go), over
	// a candidate set in (bin, row) order: same partitions, no pop per
	// rejected candidate.
	jump := p.k == 2 && len(p.spaces) == 1 && !p.spaces[0].Nominal()
	cands := p.newCandSet(pool, jump)
	// avail keeps extracted rows (marked in dead) until exact() drops them;
	// rc counts the rows still unclustered.
	dead := make([]bool, p.table.Len())
	exact := func() []int {
		if len(avail) > rc.Count() {
			avail = micro.CompactRows(avail, dead)
		}
		return avail
	}
	farthest := func(q []float64) int {
		if !search.Indexed() {
			exact()
		}
		return search.Farthest(avail, q)
	}
	var clusters []micro.Cluster
	swaps := 0
	extract := func(x int) {
		var c []int
		var s int
		switch {
		case rc.Count() < 2*p.k:
			// Fewer than 2k records remain: they all form the final cluster.
			c = append([]int(nil), exact()...)
		case jump:
			c, s = p.generateClusterJump(cands, p.mat.Row(x))
		default:
			c, s = p.generateCluster(cands, p.mat.Row(x))
		}
		swaps += s
		for _, r := range c {
			dead[r] = true
		}
		cands.remove(c)
		rc.RemoveRows(c)
		search.Remove(c)
		clusters = append(clusters, micro.Cluster{Rows: c})
	}
	for rc.Count() > 0 {
		if err := p.interrupted(); err != nil {
			return nil, 0, err
		}
		if rc.RowsNeeded() {
			exact()
		}
		x0 := farthest(rc.CentroidOf(avail))
		extract(x0)
		if rc.Count() == 0 {
			break
		}
		x1 := farthest(p.mat.Row(x0))
		extract(x1)
		p.reportProgress("partition", len(pool)-rc.Count(), len(pool))
	}
	return clusters, swaps, nil
}

// generateCluster implements the paper's GenerateCluster: starting from the
// k records QI-closest to the seed record (itself included), while the
// cluster's EMD to the data set exceeds t and unconsidered records remain,
// take the next QI-closest record y and swap it with the in-cluster record
// y' whose eviction minimizes the EMD of C ∪ {y} \ {y'}; the swap is kept
// only if it strictly improves the EMD. Records considered but not swapped
// in (and records swapped out) remain available to later clusters — only the
// returned cluster is removed from the caller's pool. The candidate set
// must hold at least 2k live rows, in row order.
//
// Two memoizations prune the refinement without changing its outcome, since
// every EMD depends only on the multiset of confidential bins:
//
//   - eviction candidates sharing a bin signature yield identical post-swap
//     EMDs, so only the first of each signature is evaluated (the naive loop
//     picked the lowest-index minimum, which is exactly the first
//     occurrence);
//   - a candidate whose signature was already tried against the *current*
//     cluster state without improvement would fail again, so it is skipped;
//     the memo is cleared whenever a swap changes the cluster.
//
// Candidates come off the candidate set in exact (distance, row) order:
// one tree pop each while consumption is light, one radix-sorted remainder
// once a cluster turns out to consume most of the set — the regime of
// tight t levels, where nearly every cluster exhausts all candidates
// without reaching t and the finishing merge step does the rest. Clusters
// of the paper's k = 2 single-attribute configuration run on the
// interval-jump engine instead (generateClusterJump).
func (p *problem) generateCluster(cands *candSet, seed []float64) (cluster []int, swaps int) {
	cands.load(seed)
	cluster = make([]int, 0, p.k)
	for len(cluster) < p.k {
		y, _ := cands.next()
		cluster = append(cluster, y)
	}
	hs := p.newHistSet(cluster)
	cur := hs.emd()
	sigOK := p.sigs != nil
	if sigOK {
		p.rejected.reset()
	}
	if len(hs) == 1 {
		// Single confidential attribute (the common case): every EMD in
		// the refinement shares one denominator, so the accept/reject
		// comparisons run on the exact integer deviation numerators —
		// bit-identical decisions (emd.Hist.AbsDev) without a float
		// division per evaluation.
		h := hs[0]
		for cur > p.t {
			y, ok := cands.next()
			if !ok {
				break
			}
			if sigOK && p.rejected.testAndSet(p.sigs[y]) {
				continue
			}
			bestIdx := p.scoreEvictionsInt(h, cluster, y, sigOK)
			if bestIdx >= 0 {
				h.Swap(cluster[bestIdx], y)
				cluster[bestIdx] = y
				cur = h.EMD()
				swaps++
				if sigOK {
					p.rejected.reset()
				}
			}
		}
		return cluster, swaps
	}
	for cur > p.t {
		y, ok := cands.next()
		if !ok {
			break
		}
		if sigOK && p.rejected.testAndSet(p.sigs[y]) {
			continue
		}
		bestIdx, bestEMD := p.scoreEvictionsFloat(hs, cluster, y, cur, sigOK)
		if bestIdx >= 0 {
			hs.swap(cluster[bestIdx], y)
			cluster[bestIdx] = y
			cur = bestEMD
			swaps++
			if sigOK {
				p.rejected.reset()
			}
		}
	}
	return cluster, swaps
}

// scoreEvictionsInt returns the in-cluster eviction index whose swap with
// candidate y minimizes the post-swap integer deviation numerator, or -1
// when no swap strictly improves on the cluster's current numerator. Ties
// break toward the lowest index, and members after the first of each bin
// signature are skipped (their swaps yield identical histograms).
func (p *problem) scoreEvictionsInt(h *emd.Hist, cluster []int, y int, sigOK bool) int {
	bestIdx, bestNum := -1, h.AbsDev()
	if sigOK {
		p.evaluated.reset()
	}
	for i, out := range cluster {
		if sigOK && p.evaluated.testAndSet(p.sigs[out]) {
			continue
		}
		if d := h.EMDSwapAbsDev(out, y); d < bestNum {
			bestIdx, bestNum = i, d
		}
	}
	return bestIdx
}

// scoreEvictionsFloat is scoreEvictionsInt for the multi-attribute path,
// where the post-swap cost is the maximum EMD across the histogram set and
// comparisons run on floats. It additionally returns the winning cost (the
// caller reuses it as the new current EMD).
func (p *problem) scoreEvictionsFloat(hs histSet, cluster []int, y int, cur float64, sigOK bool) (int, float64) {
	bestIdx, bestEMD := -1, cur
	if sigOK {
		p.evaluated.reset()
	}
	for i, out := range cluster {
		if sigOK && p.evaluated.testAndSet(p.sigs[out]) {
			continue
		}
		if d := hs.emdSwap(out, y); d < bestEMD {
			bestIdx, bestEMD = i, d
		}
	}
	return bestIdx, bestEMD
}
