package tclose

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/emd"
	"repro/internal/micro"
	"repro/internal/par"
)

// Algorithm2 implements the paper's Algorithm 2 (k-anonymity-first
// t-closeness aware microaggregation) the way Section 8 evaluates it: the
// k-anonymity-first partition is used as the microaggregation function
// inside Algorithm 1, so the merge step finishes off any clusters (typically
// the last ones, formed when few unclustered records remain) that the swap
// refinement could not bring within t. The result therefore always satisfies
// t-closeness.
//
// The swap refinement runs on the incremental EMD geometry of package emd
// (see the package Performance section): candidates come off a lazily
// consumed heap, eviction candidates are deduplicated by confidential-bin
// signature, candidates whose signature already failed against the current
// cluster state are skipped in O(1), and each surviving evaluation costs
// O(occΔ·log m) instead of the naive full-histogram walk.
func Algorithm2(t *dataset.Table, k int, tLevel float64) (*Result, error) {
	prep, err := prepareOneShot(t, k, tLevel)
	if err != nil {
		return nil, err
	}
	return prep.Algorithm2(Run{}, k, tLevel)
}

// Algorithm2 runs the paper's Algorithm 2 against the prepared substrate;
// see the package-level Algorithm2. The k-anonymity-first partition depends
// on both k and t (the swap refinement targets t), so it is never cached.
func (prep *Prepared) Algorithm2(run Run, k int, tLevel float64) (*Result, error) {
	p, err := prep.newRun(run, k, tLevel)
	if err != nil {
		return nil, err
	}
	clusters, swaps, err := p.kAnonymityFirstPartition()
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

// Algorithm2Standalone runs only the k-anonymity-first partition, without
// the finishing merge step. As the paper notes, it alone cannot guarantee
// t-closeness (records may be exhausted before the last clusters reach t),
// so Result.MaxEMD may exceed t; it is exposed for the ablation benchmarks
// comparing the guarantee's cost.
func Algorithm2Standalone(t *dataset.Table, k int, tLevel float64) (*Result, error) {
	prep, err := prepareOneShot(t, k, tLevel)
	if err != nil {
		return nil, err
	}
	p, err := prep.newRun(Run{}, k, tLevel)
	if err != nil {
		return nil, err
	}
	clusters, swaps, err := p.kAnonymityFirstPartition()
	if err != nil {
		return nil, err
	}
	return &Result{
		Clusters:   clusters,
		MaxEMD:     p.maxEMD(clusters),
		Swaps:      swaps,
		EffectiveK: p.k,
	}, nil
}

// kAnonymityFirstPartition builds clusters MDAV-style (around the record
// farthest from the centroid of the unclustered records, then around the
// record farthest from that one), refining each cluster with generateCluster
// before moving on. The centroid of the unclustered records is maintained
// incrementally (O(kd) per extracted cluster instead of an O(nd) rescan),
// and both the farthest-seed queries and the candidate ordering run on a
// micro.Searcher — a deletable k-d tree over the normalized QI cube for
// large inputs, the linear scans below the crossover.
// Cancellation is checked once per seed-pair round, so an abandoned run
// stops within two cluster extractions.
func (p *problem) kAnonymityFirstPartition() ([]micro.Cluster, int, error) {
	n := p.table.Len()
	avail := make([]int, n)
	for i := range avail {
		avail[i] = i
	}
	rc := micro.NewRunningCentroid(p.mat)
	search := p.mat.NewSearcher(avail)
	// The paper's headline configuration (k = 2, one ordered confidential
	// attribute) runs on the interval-jump engine instead of the candidate
	// stream whenever the stream would be linear-mode anyway (see
	// swapjump.go): same partitions, no per-cluster distance sort.
	var jump *swapJump
	if p.k == 2 && len(p.spaces) == 1 && !p.spaces[0].Nominal() && !search.StreamIndexed() {
		jump = p.newSwapJump()
	}
	var clusters []micro.Cluster
	swaps := 0
	extract := func(x int) []int {
		c, s := p.generateCluster(x, avail, search, jump)
		swaps += s
		avail = micro.FilterRows(avail, c, p.rowScratch)
		if jump != nil {
			jump.filter(c, p.rowScratch)
		}
		rc.RemoveRows(c)
		search.Remove(c)
		clusters = append(clusters, micro.Cluster{Rows: c})
		return c
	}
	for len(avail) > 0 {
		if err := p.interrupted(); err != nil {
			return nil, 0, err
		}
		x0 := search.Farthest(avail, rc.CentroidOf(avail))
		extract(x0)
		if len(avail) == 0 {
			break
		}
		x1 := search.Farthest(avail, p.mat.Row(x0))
		extract(x1)
		p.reportProgress("partition", n-len(avail), n)
	}
	return clusters, swaps, nil
}

// generateCluster implements the paper's GenerateCluster: starting from the
// k records QI-closest to the source record x (x included), while the
// cluster's EMD to the data set exceeds t and unconsidered records remain,
// take the next QI-closest record y and swap it with the in-cluster record
// y' whose eviction minimizes the EMD of C ∪ {y} \ {y'}; the swap is kept
// only if it strictly improves the EMD. Records considered but not swapped
// in (and records swapped out) remain available to later clusters — only the
// returned cluster is removed from the caller's pool.
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
// If fewer than 2k records remain, they all form the final cluster.
//
// Candidates come off the Searcher's nearest-first stream in exact
// (distance, row) order: lazily from the k-d tree (or the linear heap) while
// consumption is light, switching to one radix-sorted remainder array when a
// cluster turns out to consume most of the candidate set — the regime of
// tight t levels, where nearly every cluster exhausts all candidates without
// reaching t and the finishing merge step does the rest.
func (p *problem) generateCluster(x int, avail []int, search *micro.Searcher, jump *swapJump) (cluster []int, swaps int) {
	if len(avail) < 2*p.k {
		return append([]int(nil), avail...), 0
	}
	if jump != nil {
		return p.generateClusterJump(jump, p.mat.Row(x))
	}
	stream := search.Stream(avail, p.mat.Row(x))
	cluster = make([]int, 0, p.k)
	for len(cluster) < p.k {
		y, _ := stream.Next()
		cluster = append(cluster, y)
	}
	hs := p.newHistSet(cluster)
	cur := hs.emd()
	sigOK := p.sigs != nil
	if sigOK {
		p.rejected.reset()
	}
	if p.k == 2 && len(hs) == 1 && !p.spaces[0].Nominal() {
		// k = 2 over a single ordered confidential attribute — the paper's
		// headline configuration. Every candidate swap leaves a two-record
		// histogram whose deviation numerator has a closed form
		// (emd.Space.TwoRecordAbsDev), so each evaluation is a handful of
		// integer operations with no pointer chasing. The signature memos
		// are dropped here: they only ever skip evaluations whose outcome
		// is forced (same bin, same cluster state, same non-improvement),
		// and with O(1) evaluations the bookkeeping costs more than the
		// evaluations it saves. Decisions are bit-identical to the general
		// path (integer comparisons, see emd.Hist.AbsDev).
		h := hs[0]
		sp := p.spaces[0]
		u0, u1 := sp.Bin(cluster[0]), sp.Bin(cluster[1])
		curNum := h.AbsDev()
		for cur > p.t {
			y, ok := stream.Next()
			if !ok {
				break
			}
			yb := sp.Bin(y)
			bestIdx, bestNum := -1, curNum
			if yb != u0 {
				if d := sp.TwoRecordAbsDev(u1, yb); d < bestNum {
					bestIdx, bestNum = 0, d
				}
			}
			if u1 != u0 && yb != u1 {
				if d := sp.TwoRecordAbsDev(u0, yb); d < bestNum {
					bestIdx, bestNum = 1, d
				}
			}
			if bestIdx >= 0 {
				h.Swap(cluster[bestIdx], y)
				cluster[bestIdx] = y
				if bestIdx == 0 {
					u0 = yb
				} else {
					u1 = yb
				}
				curNum = bestNum
				cur = h.EMD()
				swaps++
			}
		}
		return cluster, swaps
	}
	if len(hs) == 1 {
		// Single confidential attribute (the common case): every EMD in
		// the refinement shares one denominator, so the accept/reject
		// comparisons run on the exact integer deviation numerators —
		// bit-identical decisions (emd.Hist.AbsDev) without a float
		// division per evaluation.
		h := hs[0]
		for cur > p.t {
			y, ok := stream.Next()
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
		y, ok := stream.Next()
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
// break toward the lowest index and duplicate-signature members after the
// first are skipped — exactly the serial left-to-right scan — and for
// clusters at or above evictScanParMin the evaluations fan out across the
// worker budget: the histogram's swap geometry is warmed once on the owning
// goroutine (emd.Hist.WarmSwapCache), after which every evaluation is a
// pure read, and the chunk-ordered argmin reduction reproduces the serial
// winner bit-for-bit.
func (p *problem) scoreEvictionsInt(h *emd.Hist, cluster []int, y int, sigOK bool) int {
	if p.workers >= 2 && len(cluster) >= evictScanParMin {
		var skip func(int) bool
		if sigOK {
			mask := p.evictSkipMask(cluster)
			skip = func(i int) bool { return mask[i] }
		}
		h.WarmSwapCache()
		idx := par.ArgminInt64(len(cluster), p.workers, skip, func(i int) int64 {
			return h.EMDSwapAbsDev(cluster[i], y)
		})
		if idx >= 0 && h.EMDSwapAbsDev(cluster[idx], y) < h.AbsDev() {
			return idx
		}
		return -1
	}
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
// serial loop reuses it as the new current EMD).
func (p *problem) scoreEvictionsFloat(hs histSet, cluster []int, y int, cur float64, sigOK bool) (int, float64) {
	if p.workers >= 2 && len(cluster) >= evictScanParMin {
		var mask []bool
		if sigOK {
			mask = p.evictSkipMask(cluster)
		}
		for _, h := range hs {
			h.WarmSwapCache()
		}
		idx := par.ArgminFloat64(len(cluster), p.workers, func(i int) float64 {
			if mask != nil && mask[i] {
				return math.Inf(1)
			}
			return hs.emdSwap(cluster[i], y)
		})
		if idx >= 0 && (mask == nil || !mask[idx]) {
			if d := hs.emdSwap(cluster[idx], y); d < cur {
				return idx, d
			}
		}
		return -1, cur
	}
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

// evictSkipMask marks duplicate-signature eviction candidates (every
// occurrence of a signature after its first), the same pruning the serial
// scan applies via the evaluated set, built serially so the parallel
// evaluations never touch shared memo state. The returned slice is scratch
// reused by the next call.
func (p *problem) evictSkipMask(cluster []int) []bool {
	if cap(p.evictSkip) < len(cluster) {
		p.evictSkip = make([]bool, len(cluster))
	}
	p.evictSkip = p.evictSkip[:len(cluster)]
	p.evaluated.reset()
	for i, out := range cluster {
		p.evictSkip[i] = p.evaluated.testAndSet(p.sigs[out])
	}
	return p.evictSkip
}
