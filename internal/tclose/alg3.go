package tclose

import (
	"repro/internal/emd"
	"repro/internal/micro"
	"repro/internal/par"
)

// Algorithm3 runs the paper's Algorithm 3 (t-closeness-first
// microaggregation) against the prepared substrate. It never evaluates an
// Earth Mover's Distance: t-closeness holds by construction.
//
//  1. The cluster size is set to k' = max{k, ceil(n/(2(n-1)t+1))} (Eq. 3,
//     derived from the Proposition 2 bound EMD <= (n-k)/(2(n-1)k)) and then
//     adjusted for the n mod k' remainder (Eq. 4).
//  2. The records are split into k' subsets of floor(n/k') records in
//     ascending order of the confidential attribute, with the n mod k'
//     remaining records assigned to the central subset(s), near the median,
//     where an extra record costs the least EMD.
//  3. Clusters are formed MDAV-style (seeded at the record farthest from
//     the centroid of the unclustered records, then at the record farthest
//     from that one), each taking the QI-nearest record from every subset —
//     plus one extra record from a central subset while extras remain, so
//     some clusters have k'+1 records (Figures 3-4 of the paper).
//
// Every cluster draws at most one record per subset (two from a central
// subset), so by Proposition 2 its EMD is at most (n-k')/(2(n-1)k') <= t.
// Cost is O(n^2/k), the same order as MDAV, with no EMD evaluations.
//
// Exactness caveat (Section 7 of the paper): when k' does not divide n, the
// clusters that absorb an extra record can slightly exceed the Proposition 2
// bound; the paper deliberately uses that bound as an approximation because
// the exact uneven-case formulas are unwieldy. In that case Result.MaxEMD
// may marginally exceed t, but never emd.MaxSpreadClusterEMDUneven(n, k').
// When k' divides n — as in all of the paper's experiments — the t-closeness
// guarantee is exact.
//
// When several confidential attributes are present the subsets are ranked on
// the first one; the construction guarantee covers that attribute, and
// Result.MaxEMD reports the worst EMD across all of them.
//
// The partition (and its achieved EMD) depends on (k, t) only through the
// effective cluster size k', so it is cached per k': every (k, t) grid
// point mapping to an already-computed k' returns a deep copy of the cached
// partition without touching the quasi-identifier geometry at all.
func (prep *Prepared) Algorithm3(run Run, k int, tLevel float64) (*Result, error) {
	p, err := prep.newRun(run, k, tLevel)
	if err != nil {
		return nil, err
	}
	n := prep.table.Len()
	kEff, err := emd.RequiredClusterSize(n, p.k, p.t)
	if err != nil {
		return nil, err
	}
	kEff = emd.AdjustClusterSize(n, kEff)
	if kEff >= n {
		// A single cluster containing the whole data set: EMD is 0.
		clusters := []micro.Cluster{{Rows: micro.AllRows(n)}}
		return &Result{Clusters: clusters, MaxEMD: 0, EffectiveK: kEff}, nil
	}
	prep.cacheMu.Lock()
	cached, ok := prep.alg3ByK[kEff]
	prep.cacheMu.Unlock()
	if !ok {
		clusters, err := p.tClosenessFirstPartition(kEff)
		if err != nil {
			return nil, err
		}
		cached = alg3Cached{clusters: clusters, maxEMD: p.maxEMD(clusters)}
		prep.cacheMu.Lock()
		if prep.alg3ByK == nil {
			prep.alg3ByK = make(map[int]alg3Cached)
		}
		prep.alg3ByK[kEff] = cached
		prep.cacheMu.Unlock()
	}
	return &Result{
		Clusters:   copyClusters(cached.clusters),
		MaxEMD:     cached.maxEMD,
		EffectiveK: kEff,
	}, nil
}

// copyClusters deep-copies a partition so cached state never escapes to
// callers that may mutate their Result.
func copyClusters(clusters []micro.Cluster) []micro.Cluster {
	out := make([]micro.Cluster, len(clusters))
	for i, c := range clusters {
		out[i] = micro.Cluster{Rows: append([]int(nil), c.Rows...)}
	}
	return out
}

// rankSubsets splits record indices into k subsets of floor(n/k) records in
// ascending order of the first confidential attribute, assigning the n mod k
// remaining records to the central subset(s): all to the middle subset when
// k is odd, split between the two middle subsets when k is even (Figures 3-4
// of the paper). The Eq. (4) adjustment guarantees n mod k <= floor(n/k).
func (p *problem) rankSubsets(k int) [][]int {
	n := p.table.Len()
	// The (value, row) ranking is shared substrate, sorted once per table
	// epoch; the subsets copy their slices out of it.
	order := p.ConfOrder()
	base := n / k
	r := n % k
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = base
	}
	if r > 0 {
		if k%2 == 1 {
			sizes[k/2] += r
		} else {
			sizes[k/2-1] += (r + 1) / 2
			sizes[k/2] += r / 2
		}
	}
	subsets := make([][]int, k)
	pos := 0
	for i := 0; i < k; i++ {
		subsets[i] = append([]int(nil), order[pos:pos+sizes[i]]...)
		pos += sizes[i]
	}
	return subsets
}

// tClosenessFirstPartition forms floor(n/k) clusters, each with exactly one
// QI-nearest record per rank subset plus at most one extra record from a
// central subset while extras remain. The centroid of the remaining records
// is maintained incrementally, the farthest-seed queries run on a Searcher
// over the whole record set, and each rank subset carries its own Searcher
// for the per-cluster nearest-record draws — k-d-tree-backed above the
// crossover at any dimensionality, linear below it, with identical results
// either way. Subset Searchers tie-break by position in the confidential
// ranking, exactly as the linear scan over the subset slice does. Drawn
// records are marked in a row-indexed bitmap and left in the remaining and
// subset slices, which are compacted (order kept) only when a linear reader
// needs them exact: an unindexed Searcher, or the exact centroid of a
// small remainder. An indexed draw therefore costs no pass over its subset
// and an indexed round no pass over the table.
// Cancellation is checked once per seed-pair round, so an abandoned run
// stops within two cluster builds.
func (p *problem) tClosenessFirstPartition(k int) ([]micro.Cluster, error) {
	n := p.table.Len()
	subsets := p.rankSubsets(k)
	base := n / k
	var clusters []micro.Cluster
	// Live membership for centroid/farthest computations over the whole
	// remaining data set; rc counts the live rows, subLive those of each
	// subset.
	remaining := micro.AllRows(n)
	dead := make([]bool, n)
	rc := micro.NewRunningCentroid(p.mat, remaining)
	global := p.mat.NewSearcher(remaining)
	subSearch := make([]*micro.Searcher, k)
	subLive := make([]int, k)
	for i := range subsets {
		subSearch[i] = p.mat.NewSearcher(subsets[i])
		subLive[i] = len(subsets[i])
	}
	take := func(i int, seed []float64) int {
		if !subSearch[i].Indexed() && len(subsets[i]) > subLive[i] {
			subsets[i] = micro.CompactRows(subsets[i], dead)
		}
		x := subSearch[i].Nearest(subsets[i], seed)
		dead[x] = true
		subLive[i]--
		subSearch[i].RemoveOne(x)
		return x
	}
	// The k per-subset draws of one cluster are independent shards: each
	// touches only its own subset slice, Searcher and the dead marks of its
	// own rows, so they run on a reusable worker pool when the subsets are
	// big enough to pay for the handoff. Draw results land in fixed slots
	// and are appended in subset order, so the cluster is identical to the
	// serial loop's at any worker count (and the pool is degenerate — fully
	// inline — at one worker).
	pool := par.NewPool(1)
	if p.workers >= 2 && k >= 2 && base >= alg3DrawParMinRows {
		pool = par.NewPool(p.workers)
	}
	defer pool.Close()
	drawn := make([]int, k)
	build := func(seed []float64) micro.Cluster {
		rows := make([]int, 0, k+1)
		pool.Run(k, func(i int) {
			if subLive[i] == 0 {
				drawn[i] = -1
				return
			}
			drawn[i] = take(i, seed)
		})
		for i := 0; i < k; i++ {
			if drawn[i] >= 0 {
				rows = append(rows, drawn[i])
			}
		}
		// Extra record: while some subset still holds more records than the
		// clusters left to build, it must shed one extra now. Take it from
		// the most overfull (central) subset.
		left := base - len(clusters) - 1 // clusters still to build after this one
		surplus, at := 0, -1
		for i := 0; i < k; i++ {
			if s := subLive[i] - left; s > surplus {
				surplus, at = s, i
			}
		}
		if at >= 0 && surplus > 0 {
			rows = append(rows, take(at, seed))
		}
		rc.RemoveRows(rows)
		global.Remove(rows)
		return micro.Cluster{Rows: rows}
	}
	// seedRows returns the remaining-row slice, compacted first when a
	// linear reader is about to read it.
	seedRows := func() []int {
		if (!global.Indexed() || rc.RowsNeeded()) && len(remaining) > rc.Count() {
			remaining = micro.CompactRows(remaining, dead)
		}
		return remaining
	}
	for rc.Count() > 0 {
		if err := p.interrupted(); err != nil {
			return nil, err
		}
		rows := seedRows()
		x0 := global.Farthest(rows, rc.CentroidOf(rows))
		c := build(p.mat.Row(x0))
		clusters = append(clusters, c)
		if rc.Count() == 0 {
			break
		}
		x1 := global.Farthest(seedRows(), p.mat.Row(x0))
		clusters = append(clusters, build(p.mat.Row(x1)))
		p.reportProgress("partition", n-rc.Count(), n)
	}
	return clusters, nil
}
