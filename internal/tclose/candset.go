package tclose

import (
	"math"
	"sort"

	"repro/internal/emd"
	"repro/internal/micro"
)

// candSet is Algorithm 2's candidate set for one partition loop: the pool's
// rows plus a packed copy of their normalized QI coordinates, built once per
// loop. For each cluster, load makes one serial pass over the set that
// writes every candidate's squared distance to the seed and the
// (distance, row) minimum of each candSetBlock-position block, then builds a
// tournament tree over the blocks. The swap refinement reads candidates from
// it in exact (distance, row) order — the order of a full candidate sort —
// in two ways:
//
//   - next pops the global minimum (one block rescan and one tree path per
//     pop) and, once a cluster has taken drainAt candidates with more than
//     drainAt left, radix-sorts the live remainder once and walks it;
//   - minIn answers the jump engine's "nearest live candidate within these
//     positions" from the block minima (see swapjump.go).
//
// Rows extracted by earlier clusters stay in the arrays until they fill a
// 1/candSetCompactShare share of the positions. Their coordinates are set
// to +Inf, so load gives them an infinite distance without a test — the
// marker a popped candidate gets too. Seeds and live coordinates are finite
// (normalized QI values, at least one per row), so every live candidate's
// distance is finite.
//
// The positions are in row order, or in (first space's bin, row) order for
// the jump engine, whose bin intervals are then position ranges.
type candSet struct {
	dim      int
	rows     []int32   // row id per position
	coords   []float64 // dim coordinates per position, packed; +Inf once gone
	nGone    int       // positions extracted by earlier clusters
	sp       *emd.Space
	bins     []int32 // first space's bin per position; nil in row order
	binStart []int32 // first position of each bin, and len(rows) last

	// Per-cluster state, rebuilt by load.
	dist   []float64 // squared distance to the seed; +Inf once taken or gone
	left   int       // live candidates not yet taken
	popped int       // candidates next has returned
	tree   []int32   // tree[base+b]: block b's minimum position; -1 empty
	base   int

	// The drained remainder (row-order sets only) and its sort scratch.
	rest    []micro.DistEntry
	restPos int
	drained bool
	tmp     []micro.DistEntry
	counts  []int32
}

// candSetBlock is the number of positions summarized by one tournament
// leaf: a pop rescans one block, so it bounds the per-pop scan, while the
// tree it feeds has one leaf per block.
const candSetBlock = 32

// candSetCompactShare is the inverse share of gone positions at which the
// set compacts: at a quarter gone, the per-cluster pass stops carrying
// them.
const candSetCompactShare = 4

// drainAt is the number of candidates a cluster takes one pop at a time
// before it concludes that it will take most of the set: with more than
// drainAt still live, next gathers the live remainder in row order and
// radix-sorts it once, O(R) over contiguous memory instead of R tree pops.
// The switch keeps the exact (distance, row) order. A variable so tests can
// force drains on small tables.
var drainAt = 384

// newCandSet builds the candidate set over pool (ascending rows). With
// byBin, positions are ordered by (first space's bin, row) — a counting
// sort of the pool itself, which is already in row order.
func (p *problem) newCandSet(pool []int, byBin bool) *candSet {
	c := &candSet{dim: p.mat.Dim(), rows: make([]int32, len(pool))}
	if byBin {
		c.sp = p.spaces[0]
		c.binStart = make([]int32, c.sp.Bins()+1)
		for _, r := range pool {
			c.binStart[c.sp.Bin(r)+1]++
		}
		for b := 1; b < len(c.binStart); b++ {
			c.binStart[b] += c.binStart[b-1]
		}
		next := append([]int32(nil), c.binStart...)
		c.bins = make([]int32, len(pool))
		for _, r := range pool {
			b := c.sp.Bin(r)
			c.rows[next[b]] = int32(r)
			c.bins[next[b]] = int32(b)
			next[b]++
		}
	} else {
		for i, r := range pool {
			c.rows[i] = int32(r)
		}
	}
	c.coords = make([]float64, len(pool)*c.dim)
	for i, r := range c.rows {
		copy(c.coords[i*c.dim:(i+1)*c.dim], p.mat.Row(int(r)))
	}
	return c
}

// pos returns the position of row r.
func (c *candSet) pos(r int) int {
	if c.bins == nil {
		return sort.Search(len(c.rows), func(i int) bool { return int(c.rows[i]) >= r })
	}
	b := c.sp.Bin(r)
	lo, hi := int(c.binStart[b]), int(c.binStart[b+1])
	return lo + sort.Search(hi-lo, func(i int) bool { return int(c.rows[lo+i]) >= r })
}

// gone reports whether position i was extracted by an earlier cluster.
func (c *candSet) gone(i int) bool { return math.IsInf(c.coords[i*c.dim], 1) }

// remove marks the rows of an extracted cluster gone, compacting the set
// once a 1/candSetCompactShare share of its positions is gone.
func (c *candSet) remove(rows []int) {
	inf := math.Inf(1)
	for _, r := range rows {
		i := c.pos(r)
		for j := range c.dim {
			c.coords[i*c.dim+j] = inf
		}
	}
	c.nGone += len(rows)
	if c.nGone*candSetCompactShare < len(c.rows) {
		return
	}
	out := 0
	for i := range c.rows {
		if c.gone(i) {
			continue
		}
		c.rows[out] = c.rows[i]
		copy(c.coords[out*c.dim:(out+1)*c.dim], c.coords[i*c.dim:(i+1)*c.dim])
		if c.bins != nil {
			c.bins[out] = c.bins[i]
		}
		out++
	}
	c.rows, c.coords = c.rows[:out], c.coords[:out*c.dim]
	c.nGone = 0
	if c.bins != nil {
		c.bins = c.bins[:out]
		clear(c.binStart)
		for _, b := range c.bins {
			c.binStart[b+1]++
		}
		for b := 1; b < len(c.binStart); b++ {
			c.binStart[b] += c.binStart[b-1]
		}
	}
}

// less orders positions by (distance, row).
func (c *candSet) less(a, b int32) bool {
	if da, db := c.dist[a], c.dist[b]; da != db {
		return da < db
	}
	return c.rows[a] < c.rows[b]
}

// better returns the (distance, row)-smaller of two positions, -1 meaning
// none.
func (c *candSet) better(a, b int32) int32 {
	if a < 0 || (b >= 0 && c.less(b, a)) {
		return b
	}
	return a
}

// load computes every candidate's squared distance to seed and the block
// minima in one serial pass, then builds the tree over the blocks.
func (c *candSet) load(seed []float64) {
	n := len(c.rows)
	if cap(c.dist) < n {
		c.dist = make([]float64, n)
	}
	c.dist = c.dist[:n]
	nb := (n + candSetBlock - 1) / candSetBlock
	base := 1
	for base < nb {
		base *= 2
	}
	if cap(c.tree) < 2*base {
		c.tree = make([]int32, 2*base)
	}
	c.tree, c.base = c.tree[:2*base], base
	for b := 0; b < nb; b++ {
		lo := b * candSetBlock
		hi := min(lo+candSetBlock, n)
		fillDist2(c.dist[lo:hi], c.coords[lo*c.dim:hi*c.dim], seed[:c.dim])
		c.tree[base+b] = c.blockMin(b)
	}
	for b := base + nb; b < 2*base; b++ {
		c.tree[b] = -1
	}
	for i := base - 1; i >= 1; i-- {
		c.tree[i] = c.better(c.tree[2*i], c.tree[2*i+1])
	}
	c.left = n - c.nGone
	c.popped = 0
	c.drained = false
}

// fillDist2 writes the squared distance from each packed point of coords
// to seed into dist. Each distance sums d*d over the dimensions in
// ascending order, as micro.Matrix.RowDist2 does, so the (distance, row)
// order is the same on every platform; four rows are interleaved, which
// leaves each row's own operation order unchanged.
func fillDist2(dist, coords, seed []float64) {
	dim := len(seed)
	i := 0
	for ; i+4 <= len(dist); i += 4 {
		x0 := coords[i*dim:][:dim]
		x1 := coords[(i+1)*dim:][:dim]
		x2 := coords[(i+2)*dim:][:dim]
		x3 := coords[(i+3)*dim:][:dim]
		var s0, s1, s2, s3 float64
		for j, v := range seed {
			d0 := x0[j] - v
			d1 := x1[j] - v
			d2 := x2[j] - v
			d3 := x3[j] - v
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		dist[i], dist[i+1], dist[i+2], dist[i+3] = s0, s1, s2, s3
	}
	for ; i < len(dist); i++ {
		x := coords[i*dim:][:dim]
		var s float64
		for j, v := range seed {
			d := x[j] - v
			s += d * d
		}
		dist[i] = s
	}
}

// blockMin returns the (distance, row)-minimal position of block b, live or
// not.
func (c *candSet) blockMin(b int) int32 {
	lo := b * candSetBlock
	hi := min(lo+candSetBlock, len(c.rows))
	dist, rows := c.dist[lo:hi], c.rows[lo:hi]
	best, bd := 0, dist[0]
	for i, d := range dist {
		if d < bd || (d == bd && rows[i] < rows[best]) {
			best, bd = i, d
		}
	}
	return int32(lo + best)
}

// take marks live position i taken and refreshes its block's minimum and
// tree path.
func (c *candSet) take(i int32) {
	c.dist[i] = math.Inf(1)
	c.left--
	b := int(i) / candSetBlock
	t := c.base + b
	c.tree[t] = c.blockMin(b)
	for t >>= 1; t >= 1; t >>= 1 {
		c.tree[t] = c.better(c.tree[2*t], c.tree[2*t+1])
	}
}

// next returns the (distance, row)-next live candidate of the loaded
// cluster, or ok=false when none is left. Only row-order sets drain: their
// position order is the tie order the stable radix sort keeps.
func (c *candSet) next() (row int, ok bool) {
	if c.drained {
		if c.restPos == len(c.rest) {
			return -1, false
		}
		row = int(c.rest[c.restPos].Row)
		c.restPos++
		return row, true
	}
	if c.left == 0 {
		return -1, false
	}
	if c.popped >= drainAt && c.left > drainAt {
		c.drain()
		return c.next()
	}
	i := c.tree[1]
	c.take(i)
	c.popped++
	return int(c.rows[i]), true
}

// drain gathers the live remainder in position (row) order and radix-sorts
// it by distance; the sort is stable, so equal distances stay in row order.
func (c *candSet) drain() {
	rest := c.rest[:0]
	inf := math.Inf(1)
	for i, d := range c.dist {
		if d != inf {
			rest = append(rest, micro.DistEntry{D: d, Row: c.rows[i]})
		}
	}
	// The sort ping-pongs between rest and tmp and leaves tmp on the buffer
	// it did not return, so the next gather never lands in its scratch.
	c.rest = micro.RadixSortDist(rest, &c.tmp, &c.counts)
	c.restPos = 0
	c.drained = true
}

// minIn returns the (distance, row)-minimal live position in [lo, hi), or
// -1 when the range holds none: the partial blocks at either end are
// scanned, the full blocks between them read from the tree.
func (c *candSet) minIn(lo, hi int) int32 {
	best := int32(-1)
	scan := func(from, to int) {
		for i := int32(from); i < int32(to); i++ {
			best = c.better(best, i)
		}
	}
	fb := (lo + candSetBlock - 1) / candSetBlock
	lb := hi / candSetBlock
	if fb >= lb {
		scan(lo, hi)
	} else {
		scan(lo, fb*candSetBlock)
		for l, h := fb+c.base, lb+c.base; l < h; l, h = l>>1, h>>1 {
			if l&1 == 1 {
				best = c.better(best, c.tree[l])
				l++
			}
			if h&1 == 1 {
				h--
				best = c.better(best, c.tree[h])
			}
		}
		scan(lb*candSetBlock, hi)
	}
	if best >= 0 && math.IsInf(c.dist[best], 1) {
		return -1
	}
	return best
}

// binRange returns the positions [lo, hi) whose bins lie in [blo, bhi).
func (c *candSet) binRange(blo, bhi int) (int, int) {
	return int(c.binStart[blo]), int(c.binStart[bhi])
}
