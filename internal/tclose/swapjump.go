package tclose

import (
	"sort"

	"repro/internal/emd"
	"repro/internal/micro"
	"repro/internal/par"
)

// This file implements the jump engine behind Algorithm 2's headline
// configuration (k = 2, one ordered confidential attribute): a drop-in
// replacement for the nearest-first candidate stream whose partitions are
// bit-identical, but whose cost adapts to the refinement regime per
// cluster. Every such cluster runs on it, at every QI dimensionality and
// over every row pool the partition loop takes — the whole table, a warm
// repair frontier or a k-d shard.
//
// The sequential reference pops every remaining candidate in ascending
// (distance, row) order, evaluates a closed-form two-record deviation
// (emd.Space.TwoRecordAbsDev) for each eviction, and keeps the swap that
// strictly lowers it, the lower index on ties. Two regimes matter:
//
//   - Loose t: a cluster reaches t after a handful of pops, many of them
//     accepted. The lazy heap is essentially optimal — one distance fill,
//     one heapify, a few O(log n) pops.
//   - Tight t: almost every cluster exhausts every candidate without
//     reaching t, and almost every pop is a rejection. The cost is
//     producing the full (distance, row) order — one radix sort of the
//     whole remainder per cluster on the stream path, the dominant term
//     of the full-size runs.
//
// The engine therefore runs each cluster in two phases. Phase 1 is exactly
// the sequential loop on a lazy position heap. If a cluster's pops exceed
// jumpAfterPops with a large remainder outstanding — the stream path's own
// drain signal — the cluster is provably in the rejection-dominated regime,
// and phase 2 takes over: instead of popping rejections one by one, it
// jumps straight to the next candidate that will be *accepted*. That works
// because for a two-record cluster the accept/reject decision depends only
// on the candidate's confidential bin and the current state (u0, u1,
// curNum), not on its distance — the distance order only decides which
// improving candidate is reached first. Phase 2 computes the improving bin
// set as O(1) many intervals (binary searches over a piecewise-convex
// closed form, see below) and answers "nearest candidate within these bin
// intervals" with a segment tree over the candidates bucketed by bin,
// built once per graduating cluster.
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
// changing. Phase 2 leaves skipped candidates alive and re-queries them
// under later states, so equivalence needs more than "they were rejected
// then": it rests on a monotonicity lemma — a bin that does not improve on
// the current pair cannot improve on any pair reached by accepted swaps.
// One step suffices by induction: if min(g_u0(b), g_u1(b)) >= dev(u0, u1)
// and a swap to y is accepted (new pair P' with dev(P') < dev(u0, u1)),
// then min over w' in P' of g_w'(b) >= dev(P'). Hence a candidate the
// sequential loop rejected and consumed can never be selected by a later
// phase-2 query — it stays outside every later improving set — and the
// first candidate each query returns is exactly the sequential loop's next
// accepted pop. The lemma is pinned directly by TestJumpSkipMonotonicity
// (randomized one-step closure over the exact integer deviations), and the
// end-to-end equivalence by the naive-reference property tests (every
// phase floor forced), the worker-sweep and duplicate-table tests, and the
// golden conformance fixtures.
//
// The distance fill is the engine's only fan-out (chunk-parallel under the
// engine worker budget); every chunk writes disjoint slots of the same
// values, so results are worker-count-invariant.

// jumpAfterPops is the number of phase-1 pops after which a cluster with
// more than jumpAfterPops candidates still outstanding graduates to the
// interval-jump phase. It mirrors the stream path's drain threshold: by
// then the cluster has proven it is burning pops on rejections, and the
// O(avail) bucket build plus O(log) accepted-swap queries beat continuing
// to pop one rejection at a time. Both phases produce identical clusters,
// so the floor is purely a performance knob — a variable so tests can
// force either phase.
var jumpAfterPops = 128

// jumpDirectStreak is the number of consecutive drained clusters after
// which the next cluster skips phase 1 outright — no heapify, initial
// picks straight off the segment tree. In the sustained-drain regime of
// tight t every cluster pays the bucket build anyway, so the phase-1 heap
// is pure overhead; a single cluster that reaches t resets the streak.
// Purely a performance knob (identical clusters either way), variable for
// tests.
var jumpDirectStreak = 4

// swapJump holds the per-run scratch of the jump engine, reused across
// clusters: one distance slot, liveness bit, heap slot and tree slot per
// table record.
type swapJump struct {
	mat *micro.Matrix
	sp  *emd.Space
	// rank is the surviving candidate set in ascending (confidential
	// value, row) order — bucket layout: candidates of one bin are one
	// contiguous position run. The partition loop filters it in lockstep
	// with avail.
	rank []int

	dist  []float64 // per-position distance to the cluster seed
	alive []bool    // per-position liveness within the current cluster
	heap  []int32   // phase-1 lazy position heap in (distance, row) order

	// drainStreak counts consecutive clusters that drained (exhausted
	// their improving candidates without reaching t); at jumpDirectStreak
	// the next cluster starts directly in phase 2.
	drainStreak int

	// Phase-2 structure (valid only when built).
	built    bool
	runStart []int32 // bucket u = rank positions [runStart[u], runStart[u+1])
	runBin   []int   // bin id of bucket u, ascending
	head     []int32 // per-bucket position of the (distance, row) minimum, -1 when empty

	// tree is a flat segment tree over the buckets: tree[treeBase+u] is
	// head[u], inner nodes the (distance, row)-smaller child. -1 is empty.
	tree     []int32
	treeBase int
}

// newSwapJump builds the engine over the rows of pool: its ranking is the
// substrate's confidential order restricted to the pool.
func (p *problem) newSwapJump(pool []int) *swapJump {
	in := p.rowScratch
	for _, r := range pool {
		in[r] = true
	}
	rank := make([]int, 0, len(pool))
	for _, r := range p.ConfOrder() {
		if in[r] {
			rank = append(rank, r)
		}
	}
	for _, r := range pool {
		in[r] = false
	}
	return &swapJump{mat: p.mat, sp: p.spaces[0], rank: rank}
}

// filter drops the extracted cluster's rows from the candidate ranking,
// mirroring the partition loop's avail bookkeeping.
func (j *swapJump) filter(drop []int, scratch []bool) {
	j.rank = micro.FilterRows(j.rank, drop, scratch)
}

// less orders candidate positions by (distance, row) — the exact emission
// order of the stream it replaces.
func (j *swapJump) less(a, b int32) bool {
	da, db := j.dist[a], j.dist[b]
	if da != db {
		return da < db
	}
	return j.rank[a] < j.rank[b]
}

// load prepares the per-cluster distances (parallel chunks under the
// matrix's scan gating, the same knob as every other row scan) and
// liveness; the phase-1 heap and phase-2 structure are built separately by
// whichever phase the cluster starts in.
func (j *swapJump) load(seed []float64) {
	n := len(j.rank)
	if cap(j.dist) < n {
		j.dist = make([]float64, n)
		j.alive = make([]bool, n)
		j.heap = make([]int32, n)
	}
	j.dist = j.dist[:n]
	j.alive = j.alive[:n]
	dist, alive := j.dist, j.alive
	mat, rank := j.mat, j.rank
	par.Chunks(n, mat.ScanWorkers(n), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dist[i] = mat.RowDist2(rank[i], seed)
			alive[i] = true
		}
	})
	j.built = false
}

// heapInit fills and heapifies the phase-1 position heap.
func (j *swapJump) heapInit() {
	n := len(j.rank)
	j.heap = j.heap[:n]
	for i := range j.heap {
		j.heap[i] = int32(i)
	}
	for i := n/2 - 1; i >= 0; i-- {
		j.siftDown(i)
	}
}

func (j *swapJump) siftDown(i int) {
	h := j.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		next := l
		if r := l + 1; r < n && j.less(h[r], h[l]) {
			next = r
		}
		if !j.less(h[next], h[i]) {
			return
		}
		h[i], h[next] = h[next], h[i]
		i = next
	}
}

// heapPop removes and returns the (distance, row)-smallest remaining
// position, marking it dead; ok is false when the heap is exhausted.
func (j *swapJump) heapPop() (int32, bool) {
	if len(j.heap) == 0 {
		return -1, false
	}
	top := j.heap[0]
	last := len(j.heap) - 1
	j.heap[0] = j.heap[last]
	j.heap = j.heap[:last]
	j.siftDown(0)
	j.alive[top] = false
	return top, true
}

// ensureStructure builds the bin buckets, per-bucket minima and segment
// tree from the current liveness — the phase-2 mode for clusters whose
// refinement drains.
func (j *swapJump) ensureStructure() {
	if j.built {
		return
	}
	n := len(j.rank)
	j.runStart = j.runStart[:0]
	j.runBin = j.runBin[:0]
	last := -1
	for i := 0; i < n; i++ {
		if b := j.sp.Bin(j.rank[i]); b != last {
			j.runStart = append(j.runStart, int32(i))
			j.runBin = append(j.runBin, b)
			last = b
		}
	}
	j.runStart = append(j.runStart, int32(n))
	u := len(j.runBin)
	if cap(j.head) < u {
		j.head = make([]int32, u)
	}
	j.head = j.head[:u]
	for b := 0; b < u; b++ {
		j.head[b] = j.scanRun(b)
	}
	base := 1
	for base < u {
		base *= 2
	}
	j.treeBase = base
	if cap(j.tree) < 2*base {
		j.tree = make([]int32, 2*base)
	}
	j.tree = j.tree[:2*base]
	for i := 0; i < base; i++ {
		if i < u {
			j.tree[base+i] = j.head[i]
		} else {
			j.tree[base+i] = -1
		}
	}
	for i := base - 1; i >= 1; i-- {
		j.tree[i] = j.better(j.tree[2*i], j.tree[2*i+1])
	}
	j.built = true
}

func (j *swapJump) better(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 || j.less(a, b) {
		return a
	}
	return b
}

// scanRun returns the (distance, row)-minimal live position of bucket u,
// or -1 when the bucket is exhausted.
func (j *swapJump) scanRun(u int) int32 {
	best := int32(-1)
	for i := j.runStart[u]; i < j.runStart[u+1]; i++ {
		if j.alive[i] && (best < 0 || j.less(i, best)) {
			best = i
		}
	}
	return best
}

// pop marks position i dead and refreshes its bucket's head and tree path
// (phase 2 only).
func (j *swapJump) pop(i int32) {
	j.alive[i] = false
	u := sort.Search(len(j.runBin), func(x int) bool { return j.runStart[x+1] > i })
	j.head[u] = j.scanRun(u)
	t := j.treeBase + u
	j.tree[t] = j.head[u]
	for t >>= 1; t >= 1; t >>= 1 {
		j.tree[t] = j.better(j.tree[2*t], j.tree[2*t+1])
	}
}

// query returns the minimal live position among buckets [ulo, uhi).
func (j *swapJump) query(ulo, uhi int) int32 {
	best := int32(-1)
	lo, hi := ulo+j.treeBase, uhi+j.treeBase
	for lo < hi {
		if lo&1 == 1 {
			best = j.better(best, j.tree[lo])
			lo++
		}
		if hi&1 == 1 {
			hi--
			best = j.better(best, j.tree[hi])
		}
		lo >>= 1
		hi >>= 1
	}
	return best
}

// improvingPiece returns the bin interval of {b in [lo, hi) : g_w(b) < thr}
// for one convex piece of g_w (a side of b = w), empty as (0, 0).
func (j *swapJump) improvingPiece(w, lo, hi int, thr int64) (int, int) {
	if lo >= hi {
		return 0, 0
	}
	g := func(b int) int64 { return j.sp.TwoRecordAbsDev(w, b) }
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
// when no such candidate remains — at which point the sequential stream
// would reject every remaining pop and terminate with the same cluster.
func (j *swapJump) nextImproving(u0, u1 int, curNum int64) int32 {
	m := j.sp.Bins()
	best := int32(-1)
	seen := -1
	minBucket := func(blo, bhi int) {
		ulo := sort.SearchInts(j.runBin, blo)
		uhi := sort.SearchInts(j.runBin, bhi)
		if ulo < uhi {
			best = j.better(best, j.query(ulo, uhi))
		}
	}
	for _, w := range [2]int{u1, u0} {
		if w == seen {
			continue // identical partner bins: one union suffices
		}
		seen = w
		for _, piece := range [2][2]int{{0, w}, {w + 1, m}} {
			if blo, bhi := j.improvingPiece(w, piece[0], piece[1], curNum); blo < bhi {
				minBucket(blo, bhi)
			}
		}
		// The b = w point sits between the two convex pieces (the one-bin
		// cluster bump) and the sequential path does evaluate it: a
		// candidate in the partner's own bin collapses the cluster onto a
		// single bin, which can improve when that bin carries enough data
		// set mass (duplicate-heavy tables).
		if j.sp.TwoRecordAbsDev(w, w) < curNum {
			minBucket(w, w+1)
		}
	}
	return best
}

// generateClusterJump is the k = 2 single-ordered-attribute generateCluster
// over the jump engine; see the file comment. It must be called only when
// len(avail) >= 2k (the caller's small-remainder path handles the rest) and
// the candidate ranking j.rank holds exactly the rows of avail.
func (p *problem) generateClusterJump(j *swapJump, seed []float64) (cluster []int, swaps int) {
	j.load(seed)
	sp := j.sp
	// In the sustained-drain regime, skip the phase-1 heap outright: the
	// bucket structure is getting built anyway, and it answers the initial
	// picks too.
	direct := j.drainStreak >= jumpDirectStreak
	var c0, c1 int32
	if direct {
		j.ensureStructure()
		c0 = j.tree[1]
		j.pop(c0)
		c1 = j.tree[1]
		j.pop(c1)
	} else {
		j.heapInit()
		c0, _ = j.heapPop()
		c1, _ = j.heapPop()
	}
	// Initial cluster: the two (distance, row)-smallest candidates, exactly
	// the stream's first two pops.
	cluster = []int{j.rank[c0], j.rank[c1]}
	h := sp.HistOf(cluster)
	cur := h.EMD()
	u0, u1 := sp.Bin(cluster[0]), sp.Bin(cluster[1])
	curNum := h.AbsDev()
	// accept applies the sequential loop's decision to candidate y:
	// evicting cluster[0] keeps u1, evicting cluster[1] keeps u0; ties
	// prefer the lower index, and an eviction that leaves the bin pair
	// unchanged is not a swap. It reports whether the candidate was taken.
	accept := func(y int32) bool {
		yb := sp.Bin(j.rank[y])
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
		if bestIdx < 0 {
			return false
		}
		rec := j.rank[y]
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
		return true
	}
	// drained records how the cluster ended: improving candidates exhausted
	// while still above t (the tight-t signature) versus reaching t. The
	// streak of drained clusters controls the direct phase-2 entry above.
	drained := false
	defer func() {
		if drained {
			j.drainStreak++
		} else {
			j.drainStreak = 0
		}
	}()
	// Phase 1: the sequential loop on the lazy heap, until the cluster
	// either finishes or proves it is draining.
	if !direct {
		pops := 0
		for cur > p.t {
			if pops >= jumpAfterPops && len(j.heap) > jumpAfterPops {
				break // graduating to phase 2
			}
			y, ok := j.heapPop()
			if !ok {
				drained = cur > p.t
				return cluster, swaps
			}
			pops++
			accept(y)
		}
		if cur <= p.t {
			return cluster, swaps
		}
	}
	// Phase 2: jump from accepted swap to accepted swap. Candidates in
	// between have non-improving bins — the sequential loop would pop and
	// reject each with no state change.
	j.ensureStructure()
	for cur > p.t {
		y := j.nextImproving(u0, u1, curNum)
		if y < 0 {
			drained = true
			break
		}
		// By construction nextImproving only returns candidates accept takes.
		accept(y)
		j.pop(y)
	}
	return cluster, swaps
}
