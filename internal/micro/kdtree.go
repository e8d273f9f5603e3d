package micro

import (
	"fmt"
	"math"
	"sync"
)

// This file implements the spatial-index neighbor substrate: a bucketed k-d
// tree over a fixed candidate row set of a Matrix, supporting deletion and
// exact Nearest / Farthest / KNearest queries.
//
// Determinism contract: every query breaks ties in exact (distance, rank)
// order, where rank is the position of the row in the slice the tree was
// built from. Because the partition loops only ever *delete* rows (never
// reorder them), the rank order of the surviving rows always coincides with
// their relative order in the caller's shrinking candidate slice, so every
// query returns bit-identically the same row the linear scan over that slice
// would have returned. Nearest and KNearest prune subtrees by a lower
// bound: the bounding-box distance, exact in floating point (each
// per-dimension gap term of minDist2 is a lower bound of the corresponding
// term of RowDist2, the terms are accumulated in the same dimension order,
// and float64 addition and squaring are monotone under rounding), or the
// pivot annulus bound, rounded outward by kdEps. Farthest scans the rows in
// descending distance from the pivot and stops at the triangle-inequality
// upper bound (LAESA, Micó, Oncina & Vidal 1994), rounded outward the same
// way. So a pruned row provably cannot beat or tie the incumbent, and
// pruning never changes a result, only the work.

// kdLeafSize is the bucket size at which recursion stops. Leaves are scanned
// linearly over a tree-ordered contiguous copy of the coordinates, so small
// buckets keep the scan cache-friendly while bounding tree depth.
const kdLeafSize = 16

// kdParallelMin is the subtree size below which the build stops spawning
// goroutines and recurses inline.
const kdParallelMin = 4096

type kdNode struct {
	start, end  int32 // item positions covered by this subtree
	left, right int32 // children; -1 for leaves
	parent      int32 // -1 for the root
	count       int32 // alive items in the subtree
	// radLo and radHi bound the true (non-squared) distance from the
	// pivot to every point in the subtree, conservatively rounded outward.
	// Together with the pivot-to-query distance they give triangle-
	// inequality annulus bounds that keep pruning effective in higher
	// dimensions, where axis-aligned boxes alone prune poorly.
	radLo, radHi float64
}

// kdEps is the relative safety margin applied to every radial bound. The
// bounds chain a handful of float64 operations (distance accumulation,
// square root, one addition, one squaring), each within a few ulps
// (relative error ~1e-15); inflating or deflating by 1e-12 provably covers
// the accumulated rounding, so a radial prune can never cut off the true
// best row — pruning decisions are conservative, query results stay exact.
const kdEps = 1e-12

// KDTree is a deletable k-d tree over a subset of the rows of a Matrix.
type KDTree struct {
	m   *Matrix
	dim int

	nodes []kdNode
	boxes []float64 // per node: dim lows then dim highs

	items  []int32   // row ids in tree order (position-indexed)
	rank   []int32   // build-order rank of each position's row
	pts    []float64 // tree-ordered copy of the row coordinates
	alive  []bool
	leafOf []int32 // position -> leaf node
	posOf  []int32 // row -> position; -1 when the row is not in the tree

	pivot []float64 // centroid of the build points, anchor of the radial bounds

	// far lists positions in descending pivot distance, the scan order of
	// Farthest, beside each one's pivot distance (square root rounded
	// outward by kdEps) and a copy of its coordinates in the same order,
	// so the scan reads memory sequentially instead of hopping across the
	// tree layout. The build's lists are immutable and shared by clones;
	// farHead skips their dead prefix, and a tree whose lists are mostly
	// dead replaces them with compacted private copies.
	far     []int32
	farRad  []float64
	farPts  []float64
	farHead int

	nAlive int
}

// kdQuery carries the per-query pivot geometry: conservative lower and
// upper bounds on the true distance from the pivot to the query point.
type kdQuery struct {
	p            []float64
	dcpLo, dcpHi float64
}

func (t *KDTree) newQuery(p []float64) kdQuery {
	d := math.Sqrt(Dist2(t.pivot, p))
	return kdQuery{p: p, dcpLo: d * (1 - kdEps), dcpHi: d * (1 + kdEps)}
}

// radialMin2 returns a safe lower bound on the squared distance from the
// query to any point of node nd: points live in the pivot annulus
// [radLo, radHi], so their distance to the query is at least the gap
// between that annulus and the pivot-to-query distance.
func (nd *kdNode) radialMin2(q *kdQuery) float64 {
	g := q.dcpLo - nd.radHi
	if h := nd.radLo - q.dcpHi; h > g {
		g = h
	}
	if g <= 0 {
		return 0
	}
	return g * g * (1 - kdEps)
}

// kdNodeCount returns the number of tree nodes a segment of s items
// produces, memoizing by size. The build recursion visits exactly the sizes
// this recursion visits, so a fully populated memo can be read concurrently
// by the parallel build.
func kdNodeCount(s int, memo map[int]int32) int32 {
	if s <= kdLeafSize {
		return 1
	}
	if v, ok := memo[s]; ok {
		return v
	}
	l := (s + 1) / 2
	v := 1 + kdNodeCount(l, memo) + kdNodeCount(s-l, memo)
	memo[s] = v
	return v
}

// NewKDTree builds a k-d tree over the given rows of m. The order of rows
// fixes the tie-breaking rank of every query (see the determinism contract
// above). Splits are at the median position of the widest bounding-box
// dimension in (coordinate, rank) order, so the tree is balanced regardless
// of the data; duplicated points cost pruning power, never correctness.
// Each split is a selection, not a sort: it moves the lower half of the
// segment to the left without ordering either half, which fixes every
// node's membership, box and radii exactly as a full sort would and leaves
// only the order inside a leaf open — and every query breaks ties by rank,
// not by leaf order. The selection permutes int32 build ranks over a
// build-order copy of the coordinates, gathered into tree order once at the
// end. Subtrees of at least kdParallelMin items are built concurrently
// under the matrix's worker budget; every goroutine writes disjoint
// preallocated ranges, so the built tree is identical to a serial build.
func NewKDTree(m *Matrix, rows []int) *KDTree {
	n := len(rows)
	if n == 0 || m.dim == 0 {
		return nil
	}
	dim := m.dim
	memo := make(map[int]int32)
	total := int(kdNodeCount(n, memo))
	t := &KDTree{
		m:      m,
		dim:    dim,
		nodes:  make([]kdNode, total),
		boxes:  make([]float64, total*2*dim),
		items:  make([]int32, n),
		rank:   make([]int32, n),
		pts:    make([]float64, n*dim),
		alive:  make([]bool, n),
		leafOf: make([]int32, n),
		posOf:  make([]int32, m.n),
		pivot:  make([]float64, dim),
		nAlive: n,
	}
	// Build-order scratch: coordinates and pivot distances indexed by rank,
	// and the rank permutation the splits reorder.
	b := kdBuild{
		t:    t,
		pts:  make([]float64, n*dim),
		rad2: make([]float64, n),
		perm: make([]int32, n),
		memo: memo,
	}
	for i, r := range rows {
		copy(b.pts[i*dim:(i+1)*dim], m.Row(r))
		b.perm[i] = int32(i)
	}
	for i := 0; i < n; i++ {
		for j, v := range b.pts[i*dim : (i+1)*dim] {
			t.pivot[j] += v
		}
	}
	for j := range t.pivot {
		t.pivot[j] /= float64(n)
	}
	for i := 0; i < n; i++ {
		b.rad2[i] = Dist2(t.pivot, b.pts[i*dim:(i+1)*dim])
	}
	if workers := m.Workers(); workers > 1 && n >= kdParallelMin {
		b.tokens = make(chan struct{}, workers-1)
	}
	b.node(0, -1, 0, int32(n))
	b.wg.Wait()
	for i := range t.posOf {
		t.posOf[i] = -1
	}
	for pos, rk := range b.perm {
		t.items[pos] = int32(rows[rk])
		t.rank[pos] = rk
		copy(t.pts[pos*dim:(pos+1)*dim], b.pts[int(rk)*dim:int(rk+1)*dim])
		t.alive[pos] = true
		t.posOf[rows[rk]] = int32(pos)
	}
	// The Farthest order: ascending (pivot distance, rank) by the radix
	// sort, read backwards.
	byRad := make([]DistEntry, n)
	for rk, r2 := range b.rad2 {
		byRad[rk] = DistEntry{D: r2, Row: int32(rk)}
	}
	var tmp []DistEntry
	var counts []int32
	byRad = RadixSortDist(byRad, &tmp, &counts)
	t.far = make([]int32, n)
	t.farRad = make([]float64, n)
	t.farPts = make([]float64, n*dim)
	for i, e := range byRad {
		j, rk := n-1-i, int(e.Row)
		t.far[j] = t.posOf[rows[rk]]
		t.farRad[j] = math.Sqrt(e.D) * (1 + kdEps)
		copy(t.farPts[j*dim:(j+1)*dim], b.pts[rk*dim:(rk+1)*dim])
	}
	return t
}

// kdBuild is the state of one NewKDTree call: build-order scratch shared
// read-only by the concurrent subtree builds, the permutation they reorder
// in disjoint ranges, and the goroutine budget.
type kdBuild struct {
	t      *KDTree
	pts    []float64 // build-order coordinates, indexed by rank
	rad2   []float64 // build-order squared pivot distances
	perm   []int32   // tree position -> rank
	memo   map[int]int32
	tokens chan struct{}
	wg     sync.WaitGroup
}

// node fills node idx covering positions [start, end). Child node indices
// are a pure function of the segment sizes (preorder layout), so concurrent
// subtree builds write disjoint node ranges without coordination.
func (b *kdBuild) node(idx, parent, start, end int32) {
	t := b.t
	dim := t.dim
	nd := &t.nodes[idx]
	nd.start, nd.end, nd.parent = start, end, parent
	nd.count = end - start
	box := t.boxes[int(idx)*2*dim : (int(idx)+1)*2*dim]
	lo, hi := box[:dim], box[dim:]
	seg := b.perm[start:end]
	first := b.pts[int(seg[0])*dim : int(seg[0]+1)*dim]
	copy(lo, first)
	copy(hi, first)
	r2lo, r2hi := b.rad2[seg[0]], b.rad2[seg[0]]
	for _, rk := range seg[1:] {
		p := b.pts[int(rk)*dim : int(rk+1)*dim]
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
		if r2 := b.rad2[rk]; r2 < r2lo {
			r2lo = r2
		} else if r2 > r2hi {
			r2hi = r2
		}
	}
	nd.radLo = math.Sqrt(r2lo) * (1 - kdEps)
	nd.radHi = math.Sqrt(r2hi) * (1 + kdEps)
	size := end - start
	if size <= kdLeafSize {
		nd.left, nd.right = -1, -1
		for i := start; i < end; i++ {
			t.leafOf[i] = idx
		}
		return
	}
	ax := 0
	width := hi[0] - lo[0]
	for j := 1; j < dim; j++ {
		if w := hi[j] - lo[j]; w > width {
			ax, width = j, w
		}
	}
	sizeL := (size + 1) / 2
	b.split(seg, ax, int(sizeL))
	mid := start + sizeL
	nd.left = idx + 1
	nd.right = idx + 1 + kdNodeCount(int(sizeL), b.memo)
	left, right := nd.left, nd.right
	if b.tokens != nil && size >= kdParallelMin {
		select {
		case b.tokens <- struct{}{}:
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				b.node(left, idx, start, mid)
				<-b.tokens
			}()
			b.node(right, idx, mid, end)
			return
		default:
		}
	}
	b.node(left, idx, start, mid)
	b.node(right, idx, mid, end)
}

// split reorders seg so that seg[:k] holds its k smallest ranks in
// (coordinate on axis ax, rank) order — the set a full sort would put
// there — by quickselect with median-of-three pivots. The key order is
// total (ranks are distinct), so the resulting set does not depend on
// pivot choices.
func (b *kdBuild) split(seg []int32, ax, k int) {
	dim := b.t.dim
	less := func(x, y int32) bool {
		cx, cy := b.pts[int(x)*dim+ax], b.pts[int(y)*dim+ax]
		if cx != cy {
			return cx < cy
		}
		return x < y
	}
	lo, hi := 0, len(seg)
	for hi-lo > 1 && k > lo && k < hi {
		x, y, z := seg[lo], seg[lo+(hi-lo)/2], seg[hi-1]
		if less(y, x) {
			x, y = y, x
		}
		if less(z, y) {
			y = z
			if less(y, x) {
				y = x
			}
		}
		pivot := y
		i, j := lo, hi-1
		for i <= j {
			for less(seg[i], pivot) {
				i++
			}
			for less(pivot, seg[j]) {
				j--
			}
			if i <= j {
				seg[i], seg[j] = seg[j], seg[i]
				i++
				j--
			}
		}
		// seg[lo:i] <= pivot <= seg[j+1:hi]; continue on the side holding
		// the boundary, or stop when it falls on the pivot itself.
		if k <= j {
			hi = j + 1
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
}

// Clone returns an independent copy of the tree: deletions on the clone do
// not affect the original (or other clones). Only the mutable liveness
// state — per-node alive counts, the alive bits and the Farthest cursor —
// is copied; the geometry, layout, bounds, rank arrays and Farthest order
// are immutable after the build and shared, so a clone costs O(n) memory
// copies against the O(n·log n) build.
func (t *KDTree) Clone() *KDTree {
	c := *t
	c.nodes = append([]kdNode(nil), t.nodes...)
	c.alive = append([]bool(nil), t.alive...)
	return &c
}

// Len returns the number of rows still alive in the tree.
func (t *KDTree) Len() int { return t.nAlive }

// Contains reports whether row is in the tree and not deleted.
func (t *KDTree) Contains(row int) bool {
	pos := t.posOf[row]
	return pos >= 0 && t.alive[pos]
}

// Delete removes a row from every future query, updating subtree counts
// along the leaf-to-root path (O(log n)). Deleting a row that is not alive
// in the tree is a caller bug and panics: the partition loops mirror their
// candidate-slice removals into the tree one-to-one, so a mismatch means the
// two views have desynchronized.
func (t *KDTree) Delete(row int) {
	pos := t.posOf[row]
	if pos < 0 || !t.alive[pos] {
		panic(fmt.Sprintf("micro: KDTree.Delete(%d): row not alive in tree", row))
	}
	t.alive[pos] = false
	t.nAlive--
	for ni := t.leafOf[pos]; ni >= 0; ni = t.nodes[ni].parent {
		t.nodes[ni].count--
	}
}

// dist2At returns the squared distance between the tree-ordered point at pos
// and p, accumulating dimensions in the same order as Matrix.RowDist2 so the
// float64 result is identical.
func (t *KDTree) dist2At(pos int32, p []float64) float64 {
	r := t.pts[int(pos)*t.dim : (int(pos)+1)*t.dim]
	var s float64
	for j, v := range p {
		d := r[j] - v
		s += d * d
	}
	return s
}

// minDist2 returns an exact float64 lower bound on the squared distance from
// p to any point in node ni's bounding box.
func (t *KDTree) minDist2(ni int32, p []float64) float64 {
	box := t.boxes[int(ni)*2*t.dim : (int(ni)+1)*2*t.dim]
	lo, hi := box[:t.dim], box[t.dim:]
	var s float64
	for j, v := range p {
		if v < lo[j] {
			d := lo[j] - v
			s += d * d
		} else if v > hi[j] {
			d := v - hi[j]
			s += d * d
		}
	}
	return s
}

// lowerBound2 returns the tighter of the box and annulus lower bounds on
// the squared distance from the query to any point of node ni.
func (t *KDTree) lowerBound2(ni int32, q *kdQuery) float64 {
	lb := t.minDist2(ni, q.p)
	if r := t.nodes[ni].radialMin2(q); r > lb {
		lb = r
	}
	return lb
}

// kdBest carries the incumbent of a single-result query.
type kdBest struct {
	d     float64
	rank  int32
	row   int32
	found bool
}

// Nearest returns the alive row nearest to p in exact (distance, rank)
// order, or -1 when the tree is empty.
func (t *KDTree) Nearest(p []float64) int {
	if t.nAlive == 0 {
		return -1
	}
	q := t.newQuery(p)
	var b kdBest
	t.nearest(0, &q, &b)
	return int(b.row)
}

func (t *KDTree) nearest(ni int32, q *kdQuery, b *kdBest) {
	nd := &t.nodes[ni]
	if nd.count == 0 {
		return
	}
	if nd.left < 0 {
		for i := nd.start; i < nd.end; i++ {
			if !t.alive[i] {
				continue
			}
			d := t.dist2At(i, q.p)
			if !b.found || d < b.d || (d == b.d && t.rank[i] < b.rank) {
				b.found, b.d, b.rank, b.row = true, d, t.rank[i], t.items[i]
			}
		}
		return
	}
	c1, c2 := nd.left, nd.right
	d1, d2 := t.lowerBound2(c1, q), t.lowerBound2(c2, q)
	if d2 < d1 {
		c1, c2, d1, d2 = c2, c1, d2, d1
	}
	// Descend on equality: a subtree at exactly the incumbent distance can
	// still hold an equal-distance row with a smaller rank.
	if !b.found || d1 <= b.d {
		t.nearest(c1, q, b)
	}
	if !b.found || d2 <= b.d {
		t.nearest(c2, q, b)
	}
}

// Farthest returns the alive row farthest from p, breaking distance ties
// toward the smallest rank, or -1 when the tree is empty. It scans the rows
// in descending distance from the pivot c: no row x after the current one
// can be farther from p than (|p−c| + |x−c|)², rounded outward by kdEps,
// and that bound only falls along the scan, so the scan stops as soon as it
// is strictly below the incumbent distance. On equality it keeps going, so
// an equally far row of lower rank still wins. Unlike box bounds, which
// barely prune a farthest query above three dimensions, the stop does not
// depend on the dimensionality: a partition loop's query sits near the
// pivot or at a row on the rim, and the scan ends within a thin outer
// shell of the candidates.
func (t *KDTree) Farthest(p []float64) int {
	if t.nAlive == 0 {
		return -1
	}
	if len(t.far)-t.farHead > 2*t.nAlive {
		t.compactFar()
	}
	for !t.alive[t.far[t.farHead]] {
		t.farHead++
	}
	q := t.newQuery(p)
	var b kdBest
	dim := t.dim
	for i := t.farHead; i < len(t.far); i++ {
		pos := t.far[i]
		if !t.alive[pos] {
			continue
		}
		if b.found {
			u := q.dcpHi + t.farRad[i]
			if u*u*(1+kdEps) < b.d {
				break
			}
		}
		// The same float64 operations as dist2At, over the same values.
		var d float64
		for j, v := range t.farPts[i*dim : (i+1)*dim] {
			g := v - p[j]
			d += g * g
		}
		if !b.found || d > b.d || (d == b.d && t.rank[pos] < b.rank) {
			b.found, b.d, b.rank, b.row = true, d, t.rank[pos], t.items[pos]
		}
	}
	return int(b.row)
}

// compactFar replaces the Farthest lists by private copies holding only
// the alive positions, in the same order; the shared lists are never
// written.
func (t *KDTree) compactFar() {
	dim := t.dim
	far := make([]int32, 0, t.nAlive)
	rad := make([]float64, 0, t.nAlive)
	pts := make([]float64, 0, t.nAlive*dim)
	for i := t.farHead; i < len(t.far); i++ {
		if pos := t.far[i]; t.alive[pos] {
			far = append(far, pos)
			rad = append(rad, t.farRad[i])
			pts = append(pts, t.farPts[i*dim:(i+1)*dim]...)
		}
	}
	t.far, t.farRad, t.farPts, t.farHead = far, rad, pts, 0
}

// kdKEntry is one member of the bounded k-nearest heap.
type kdKEntry struct {
	d    float64
	rank int32
	row  int32
}

// kdKHeap is a max-heap by (d, rank): the top is the current worst of the k
// best, the entry the next better candidate displaces.
type kdKHeap []kdKEntry

func (h kdKHeap) worse(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d > h[j].d
	}
	return h[i].rank > h[j].rank
}

func (h kdKHeap) siftUp(i int) {
	for i > 0 {
		par := (i - 1) / 2
		if !h.worse(i, par) {
			return
		}
		h[i], h[par] = h[par], h[i]
		i = par
	}
}

func (h kdKHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		next := l
		if r := l + 1; r < n && h.worse(r, l) {
			next = r
		}
		if !h.worse(next, i) {
			return
		}
		h[i], h[next] = h[next], h[i]
		i = next
	}
}

// KNearest returns the k alive rows nearest to p in ascending (distance,
// rank) order — exactly the first k entries of a full (distance, rank) sort
// of the alive rows. Fewer than k alive rows returns all of them.
func (t *KDTree) KNearest(p []float64, k int) []int {
	if k > t.nAlive {
		k = t.nAlive
	}
	if k <= 0 {
		return nil
	}
	q := t.newQuery(p)
	h := make(kdKHeap, 0, k)
	t.kNearest(0, &q, k, &h)
	// Heap-sort the survivors into ascending (d, rank) order in place.
	out := make([]int, k)
	for i := k - 1; i >= 0; i-- {
		out[i] = int(h[0].row)
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		h.siftDown(0)
	}
	return out
}

func (t *KDTree) kNearest(ni int32, q *kdQuery, k int, h *kdKHeap) {
	nd := &t.nodes[ni]
	if nd.count == 0 {
		return
	}
	if nd.left < 0 {
		for i := nd.start; i < nd.end; i++ {
			if !t.alive[i] {
				continue
			}
			d := t.dist2At(i, q.p)
			if len(*h) < k {
				*h = append(*h, kdKEntry{d: d, rank: t.rank[i], row: t.items[i]})
				h.siftUp(len(*h) - 1)
			} else if top := (*h)[0]; d < top.d || (d == top.d && t.rank[i] < top.rank) {
				(*h)[0] = kdKEntry{d: d, rank: t.rank[i], row: t.items[i]}
				h.siftDown(0)
			}
		}
		return
	}
	c1, c2 := nd.left, nd.right
	d1, d2 := t.lowerBound2(c1, q), t.lowerBound2(c2, q)
	if d2 < d1 {
		c1, c2, d1, d2 = c2, c1, d2, d1
	}
	if len(*h) < k || d1 <= (*h)[0].d {
		t.kNearest(c1, q, k, h)
	}
	if len(*h) < k || d2 <= (*h)[0].d {
		t.kNearest(c2, q, k, h)
	}
}
