package tclose

import (
	"sort"

	"repro/internal/emd"
)

// This file implements the jump engine behind Algorithm 2's headline
// configuration (k = 2, one ordered confidential attribute): a drop-in
// replacement for popping candidates one by one in (distance, row) order
// whose partitions are bit-identical, but which never pops a rejection.
// Every such cluster runs on it, at every QI dimensionality and over every
// row pool the partition loop takes — the whole table, a warm repair
// frontier or a k-d shard.
//
// The sequential reference pops every remaining candidate in ascending
// (distance, row) order, evaluates a closed-form two-record deviation
// (emd.Space.TwoRecordAbsDev) for each eviction, and keeps the swap that
// strictly lowers it, the lower index on ties. At tight t almost every
// cluster exhausts every candidate without reaching t, and almost every pop
// is a rejection. The engine instead jumps straight to the next candidate
// that will be *accepted*. That works because for a two-record cluster the
// accept/reject decision depends only on the candidate's confidential bin
// and the current state (u0, u1, curNum), not on its distance — the
// distance order only decides which improving candidate is reached first.
// The engine computes the improving bin set as O(1) many intervals (binary
// searches over a piecewise-convex closed form, see below); the candidate
// set holds its positions in (bin, row) order, so each interval is a
// position range, and the set's block minima answer "nearest live
// candidate within these positions". A cluster therefore costs the set's
// one distance pass plus O(log) per accepted swap.
//
// # Why the improving set is a union of intervals
//
// For a fixed partner bin w, g_w(b) = TwoRecordAbsDev(w, b) is convex on
// each side of b = w. Within a regime where the relative order of b, w and
// the space's half-mass crossing hc is fixed, the closed form is
// α·sqcPref(b−1) + β·b + const with α ∈ {0, 4}, so its forward difference
// is one of
//
//	4·qcPref(b) − n   (b below both w and hc)
//	 n                (b between hc and w)
//	−n                (b between w and hc)
//	4·qcPref(b) − 3n  (b above both w and hc)
//
// each nondecreasing in b because qcPref is nondecreasing; and across the
// hc cut the difference steps upward (2·qcPref(hc) > n by definition), so
// each side of w is one convex piece. A convex piece dips below a threshold
// on at most one interval, located by binary searches on the difference
// sign and the threshold. Only the b = w point breaks convexity (the
// one-bin cluster bump); it is tested separately — collapsing onto the
// partner's bin is a real candidate the sequential path evaluates — while
// the current pair's own bins never qualify (g at the current partner pair
// equals curNum itself, never strictly below).
//
// # Why skipping is exact
//
// The sequential loop consumes every popped candidate: once rejected, a
// candidate is never revisited, even though the cluster state keeps
// changing. The engine leaves skipped candidates alive and re-queries them
// under later states, so equivalence needs more than "they were rejected
// then": it rests on a monotonicity lemma — a bin that does not improve on
// the current pair cannot improve on any pair reached by accepted swaps.
// One step suffices by induction: if min(g_u0(b), g_u1(b)) >= dev(u0, u1)
// and a swap to y is accepted (new pair P' with dev(P') < dev(u0, u1)),
// then min over w' in P' of g_w'(b) >= dev(P'). Hence a candidate the
// sequential loop rejected and consumed can never be selected by a later
// query — it stays outside every later improving set — and the first
// candidate each query returns is exactly the sequential loop's next
// accepted pop. The lemma is pinned directly by TestJumpSkipMonotonicity
// (randomized one-step closure over the exact integer deviations), and the
// end-to-end equivalence by the naive-reference property tests, the
// worker-sweep and duplicate-table tests, and the golden conformance
// fixtures.

// improvingPiece returns the bin interval of {b in [lo, hi) : g_w(b) < thr}
// for one convex piece of g_w (a side of b = w), empty as (0, 0).
func improvingPiece(sp *emd.Space, w, lo, hi int, thr int64) (int, int) {
	if lo >= hi {
		return 0, 0
	}
	g := func(b int) int64 { return sp.TwoRecordAbsDev(w, b) }
	// Convexity: the forward difference is nondecreasing, so the first
	// non-negative difference marks the minimum.
	bmin := lo + sort.Search(hi-1-lo, func(i int) bool {
		return g(lo+i+1)-g(lo+i) >= 0
	})
	if g(bmin) >= thr {
		return 0, 0
	}
	// g is nonincreasing on [lo, bmin] and nondecreasing on [bmin, hi).
	left := lo + sort.Search(bmin-lo, func(i int) bool { return g(lo+i) < thr })
	right := bmin + 1 + sort.Search(hi-bmin-1, func(i int) bool { return g(bmin+1+i) >= thr })
	return left, right
}

// nextImproving returns the (distance, row)-minimal live candidate whose
// bin strictly improves on curNum for the cluster state (u0, u1), or -1
// when no such candidate remains — at which point the sequential loop
// would reject every remaining pop and terminate with the same cluster.
func (c *candSet) nextImproving(u0, u1 int, curNum int64) int32 {
	sp := c.sp
	m := sp.Bins()
	best := int32(-1)
	minBins := func(blo, bhi int) {
		if lo, hi := c.binRange(blo, bhi); lo < hi {
			best = c.better(best, c.minIn(lo, hi))
		}
	}
	seen := -1
	for _, w := range [2]int{u1, u0} {
		if w == seen {
			continue // identical partner bins: one union suffices
		}
		seen = w
		for _, piece := range [2][2]int{{0, w}, {w + 1, m}} {
			if blo, bhi := improvingPiece(sp, w, piece[0], piece[1], curNum); blo < bhi {
				minBins(blo, bhi)
			}
		}
		// The b = w point sits between the two convex pieces (the one-bin
		// cluster bump) and the sequential path does evaluate it: a
		// candidate in the partner's own bin collapses the cluster onto a
		// single bin, which can improve when that bin carries enough data
		// set mass (duplicate-heavy tables).
		if sp.TwoRecordAbsDev(w, w) < curNum {
			minBins(w, w+1)
		}
	}
	return best
}

// generateClusterJump is the k = 2 single-ordered-attribute generateCluster
// over the jump engine; see the file comment. The candidate set must be in
// (bin, row) order and hold at least 2k live rows.
func (p *problem) generateClusterJump(c *candSet, seed []float64) (cluster []int, swaps int) {
	c.load(seed)
	sp := c.sp
	// Initial cluster: the two (distance, row)-smallest candidates, exactly
	// the sequential loop's first two pops.
	c0 := c.tree[1]
	c.take(c0)
	c1 := c.tree[1]
	c.take(c1)
	cluster = []int{int(c.rows[c0]), int(c.rows[c1])}
	h := sp.HistOf(cluster)
	cur := h.EMD()
	u0, u1 := int(c.bins[c0]), int(c.bins[c1])
	curNum := h.AbsDev()
	for cur > p.t {
		y := c.nextImproving(u0, u1, curNum)
		if y < 0 {
			break
		}
		c.take(y)
		// The sequential loop's decision for candidate y, which by
		// construction improves: evicting cluster[0] keeps u1, evicting
		// cluster[1] keeps u0; ties prefer the lower index, and an eviction
		// that leaves the bin pair unchanged is not a swap.
		yb := int(c.bins[y])
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
		rec := int(c.rows[y])
		h.Swap(cluster[bestIdx], rec)
		cluster[bestIdx] = rec
		if bestIdx == 0 {
			u0 = yb
		} else {
			u1 = yb
		}
		curNum = bestNum
		cur = h.EMD()
		swaps++
	}
	return cluster, swaps
}
