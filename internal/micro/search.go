package micro

import (
	"math"
	"sync"
)

// Searcher routes the partition loops' hot neighbor queries — Farthest,
// Nearest and KNearest — either through a deletable k-d tree over the
// candidate rows or through the linear Matrix scans, whichever the
// candidate-set size warrants. Both paths return bit-identical results (the
// property tests enforce it), so the crossover is purely a performance
// knob.
//
// The caller keeps its candidate slice and passes it to every query. When
// the Searcher is unindexed the slice is the scan domain: it must contain
// exactly the rows not yet removed, in build order with removed rows
// dropped — precisely what FilterRows maintains. When it is indexed
// (Indexed, fixed at construction) the tree tracks liveness itself via
// Remove and Farthest, Nearest and KNearest ignore the slice, so a caller
// may leave removed rows in it and compact only when a linear reader needs
// the exact rows.
//
// Shard handout: a single Searcher is not safe for concurrent use (it owns
// mutable liveness), but distinct Searchers over the
// same Matrix are — the Matrix is immutable after tuning and the shared
// index cache serializes master acquisition. The sharded partition loops
// rely on exactly this: one Searcher per disjoint row shard (rank subset,
// bucket pool), each owned by one worker at a time.
type Searcher struct {
	m    *Matrix
	tree *KDTree
	// buildRows retains the build order until the tree is actually built:
	// construction is lazy, triggered by the first tree query (see
	// ensureTree), so a Searcher that is never queried never pays for a
	// build. pending accumulates removals issued before the build and is
	// replayed into the fresh tree.
	buildRows []int
	pending   []int
	// cache, when non-nil, supplies the tree as a clone of a shared master
	// built once per Matrix row-set epoch (see IndexCache) instead of a
	// fresh per-Searcher build.
	cache *IndexCache
}

// defaultIndexCrossover is the candidate-set size at or above which
// NewSearcher builds the k-d tree index for matrices without their own
// Tuning.IndexCrossover. Below it the linear scans win: they are a single
// cache-friendly pass with no per-query tree overhead, and the whole
// partition run stays comfortably inside the quadratic regime. Both paths
// produce identical partitions; tests force either one through
// Matrix.SetTuning.
const defaultIndexCrossover = 2048

// indexCrossover returns the effective crossover for this matrix.
func (m *Matrix) indexCrossover() int {
	if c := m.tun.IndexCrossover; c >= 1 {
		return c
	}
	return defaultIndexCrossover
}

// IndexCache shares one lazily built k-d tree master across Searchers. The
// expensive part of a tree — geometry, layout, bounds — is immutable after
// the build; only liveness (alive bits, subtree counts) mutates under
// deletion. The cache therefore builds the master on first demand and hands
// every Searcher an O(n) clone sharing the immutable arrays, so a sweep of
// anonymization runs over one prepared table pays the O(n·log n) build once
// instead of once per run. Concurrent acquisitions are serialized; clones
// are independent, so concurrent runs never observe each other's deletions.
type IndexCache struct {
	mu    sync.Mutex
	tree  *KDTree
	built bool
}

// acquire returns an independent clone of the master tree over rows,
// building the master on first use. A degenerate build (no tree) is
// memoized as nil.
func (c *IndexCache) acquire(m *Matrix, rows []int) *KDTree {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.built {
		c.tree = NewKDTree(m, rows)
		c.built = true
	}
	if c.tree == nil {
		return nil
	}
	return c.tree.Clone()
}

// IndexCacheEnabled reports whether EnableIndexCache was called.
func (m *Matrix) IndexCacheEnabled() bool { return m.cache != nil }

// EnableIndexCache attaches a shared-master index cache to the matrix:
// Searchers over the full ascending row set then clone one lazily built
// master tree instead of each building their own. Like SetTuning, it must
// be called before the matrix is shared across goroutines.
func (m *Matrix) EnableIndexCache() {
	if m.cache == nil {
		m.cache = &IndexCache{}
	}
}

// fullAscending reports whether rows is exactly 0..n-1 — the only candidate
// set the shared master tree is valid for, since the build order fixes the
// tie-breaking rank of every query.
func fullAscending(rows []int, n int) bool {
	if len(rows) != n {
		return false
	}
	for i, r := range rows {
		if r != i {
			return false
		}
	}
	return true
}

// NewSearcher returns a Searcher over the given candidate rows, building
// the k-d tree when the candidate set is at least the matrix's index
// crossover (and the matrix has a dimension to split on). The rows slice
// fixes the tie-breaking rank order (see KDTree). Every candidate set takes
// it: the full row set, Algorithm 3's confidential-rank subsets and SABRE's
// bucket pools, whose members are scattered across the whole QI cube, alike.
func (m *Matrix) NewSearcher(rows []int) *Searcher {
	s := &Searcher{m: m}
	if len(rows) >= m.indexCrossover() && m.dim > 0 {
		s.buildRows = append([]int(nil), rows...)
		if m.cache != nil && fullAscending(rows, m.n) {
			s.cache = m.cache
		}
	}
	return s
}

// ensureTree builds the k-d tree on first demand — from the shared master
// cache when one applies, fresh otherwise — and replays removals that
// arrived before the build.
func (s *Searcher) ensureTree() *KDTree {
	if s.tree == nil && s.buildRows != nil {
		if s.cache != nil {
			s.tree = s.cache.acquire(s.m, s.buildRows)
		} else {
			s.tree = NewKDTree(s.m, s.buildRows)
		}
		for _, r := range s.pending {
			s.tree.Delete(r)
		}
		s.buildRows, s.pending = nil, nil
	}
	return s.tree
}

// Indexed reports whether queries run against the k-d tree (built or
// pending a lazy build). It is fixed when the Searcher is made.
func (s *Searcher) Indexed() bool { return s.tree != nil || s.buildRows != nil }

// Remove deletes rows from the index. Removals issued before the lazy build
// are deferred and replayed; unindexed Searchers ignore them — the caller's
// candidate slice is the only liveness state the linear scans need.
func (s *Searcher) Remove(rows []int) {
	if s.tree != nil {
		for _, r := range rows {
			s.tree.Delete(r)
		}
	} else if s.buildRows != nil {
		s.pending = append(s.pending, rows...)
	}
}

// RemoveOne deletes a single row from the index.
func (s *Searcher) RemoveOne(row int) {
	if s.tree != nil {
		s.tree.Delete(row)
	} else if s.buildRows != nil {
		s.pending = append(s.pending, row)
	}
}

// Farthest returns the candidate row farthest from p, ties toward the
// earliest surviving position of the build order. Indexed, it runs the
// tree's pivot-ordered scan (KDTree.Farthest) at every dimensionality.
func (s *Searcher) Farthest(rows []int, p []float64) int {
	if t := s.ensureTree(); t != nil {
		return t.Farthest(p)
	}
	return s.m.Farthest(rows, p)
}

// Nearest returns the candidate row nearest to p, ties toward the earliest
// surviving position of the build order. Nearest searches keep the tree at
// any dimensionality: they prune with the incumbent ball, which stays tiny
// in a dense candidate set even when boxes overlap the query.
func (s *Searcher) Nearest(rows []int, p []float64) int {
	if t := s.ensureTree(); t != nil {
		return t.Nearest(p)
	}
	return s.m.Nearest(rows, p)
}

// KNearest returns the k candidate rows nearest to p in ascending
// (distance, tie) order. The linear path ties by row id while the tree ties
// by build rank, so callers that rely on exact tie order must build the
// Searcher over rows in ascending order (as every partition loop does), in
// which case the two coincide.
func (s *Searcher) KNearest(rows []int, p []float64, k int) []int {
	if t := s.ensureTree(); t != nil {
		return t.KNearest(p, k)
	}
	return s.m.KNearest(rows, p, k)
}

// DistEntry is one (squared distance, row) pair of a distance sort.
type DistEntry struct {
	D   float64
	Row int32
}

// RadixSortDist sorts entries into ascending distance order with a stable
// LSD radix sort over the float64 distance bits (all distances are
// non-negative squared distances, whose IEEE-754 bit patterns order
// identically to their values). Stability keeps equal distances in input
// order, so the input must already be in its tie order. Digits whose value
// is constant across the array are skipped. The digit width adapts to the
// array: 11-bit digits keep the count array at 8 KiB for small sorts
// (where clearing a 256 KiB count array would dominate), 16-bit digits
// halve the number of passes once the data outweighs the clearing. tmp and
// counts are scratch, grown as needed and kept for the next call; the
// sorted result is either a or *tmp's old buffer, and *tmp is left on the
// other one.
func RadixSortDist(a []DistEntry, tmp *[]DistEntry, counts *[]int32) []DistEntry {
	if len(a) < 2 {
		return a
	}
	bits := 11
	if len(a) >= 1<<14 {
		bits = 16
	}
	if len(*counts) < 1<<bits {
		*counts = make([]int32, 1<<bits)
	}
	cnt := (*counts)[:1<<bits]
	if cap(*tmp) < len(a) {
		*tmp = make([]DistEntry, len(a))
	}
	b := (*tmp)[:len(a)]
	var orD, andD uint64
	andD = ^uint64(0)
	for _, e := range a {
		db := math.Float64bits(e.D)
		orD |= db
		andD &= db
	}
	mask := uint32(1)<<bits - 1
	for shift := 0; shift < 64; shift += bits {
		if uint32(orD>>uint(shift))&mask == uint32(andD>>uint(shift))&mask {
			continue
		}
		radixPassDist(a, b, cnt, shift, mask)
		a, b = b, a
	}
	*tmp = b
	return a
}

func radixPassDist(src, dst []DistEntry, counts []int32, shift int, mask uint32) {
	clear(counts)
	for i := range src {
		counts[uint32(math.Float64bits(src[i].D)>>uint(shift))&mask]++
	}
	var sum int32
	for i := range counts {
		c := counts[i]
		counts[i] = sum
		sum += c
	}
	for i := range src {
		d := uint32(math.Float64bits(src[i].D)>>uint(shift)) & mask
		dst[counts[d]] = src[i]
		counts[d]++
	}
}
