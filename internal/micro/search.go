package micro

import (
	"math"
	"sync"

	"repro/internal/par"
)

// Searcher routes the partition loops' hot neighbor queries — Farthest,
// Nearest and KNearest — either through a deletable k-d tree over the
// candidate rows or through the linear Matrix scans, whichever the
// candidate-set size warrants. Both paths return bit-identical results (the
// property tests enforce it), so the crossover is purely a performance
// knob. It also serves the nearest-first candidate Stream, which is always
// a linear pass over the caller's slice.
//
// The caller keeps its candidate slice and passes it to every query. When
// the Searcher is unindexed the slice is the scan domain: it must contain
// exactly the rows not yet removed, in build order with removed rows
// dropped — precisely what FilterRows maintains. When it is indexed
// (Indexed, fixed at construction) the tree tracks liveness itself via
// Remove and Farthest, Nearest and KNearest ignore the slice, so a caller
// may leave removed rows in it and compact only when a linear reader needs
// the exact rows. Stream reads the slice whether or not the Searcher is
// indexed, so its callers keep it exact.
//
// Shard handout: a single Searcher is not safe for concurrent use (it owns
// mutable liveness and stream scratch), but distinct Searchers over the
// same Matrix are — the Matrix is immutable after tuning and the shared
// index cache serializes master acquisition. The sharded partition loops
// rely on exactly this: one Searcher per disjoint row shard (rank subset,
// bucket pool), each owned by one worker at a time.
type Searcher struct {
	m    *Matrix
	tree *KDTree
	// buildRows retains the build order until the tree is actually built:
	// construction is lazy, triggered by the first tree query (see
	// ensureTree), so a Searcher that only ever streams never pays for a
	// build. pending accumulates removals issued before the build and is
	// replayed into the fresh tree.
	buildRows []int
	pending   []int
	// cache, when non-nil, supplies the tree as a clone of a shared master
	// built once per Matrix row-set epoch (see IndexCache) instead of a
	// fresh per-Searcher build.
	cache *IndexCache

	// Reusable scratch for Stream: only one stream may be live at a time.
	stream      Stream
	linBuf      []distRow // pristine (distance, row) pairs in candidate order
	linHeap     []distRow // heapified copy consumed by the lazy phase
	drainStreak int       // consecutive preceding streams that drained
	emitMark    []bool    // row-indexed marks for drain's remainder collection
	drainA      []drainEntry
	drainTmp    []drainEntry
	radixCounts []int32
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

// Stream returns the candidate rows in ascending (distance to p, row) order
// one at a time, lazily: consumers that stop early pay only for what they
// take, while consumers that keep going trip the drain escape hatch (see
// Stream.Next). It computes every distance in candidate order, then
// heapifies a copy and pops it lazily; the rows slice must be in ascending
// row order (as every partition loop's is), which makes candidate order the
// tie order a drain relies on. The rows slice must not change while the
// stream is in use. Streams reuse scratch buffers owned by the Searcher, so
// only one stream may be live per Searcher.
func (s *Searcher) Stream(rows []int, p []float64) *Stream {
	st := &s.stream
	// Close out the previous stream's drain history. A lazy stream that
	// drained proves the heap phase was wasted work (the drain re-walks and
	// sorts everything the heap held), so it votes for presorting the next
	// stream; a lazy stream that finished inside its head, or a presorted
	// stream whose consumer stopped where the head would have sufficed,
	// resets the streak. The mode only moves work between phases — emission
	// order is identical either way.
	if st.s == s {
		if st.rest == nil || (st.presorted && st.restPos < streamDrainAt) {
			s.drainStreak = 0
		}
	}
	st.s = s
	st.emitted = 0
	st.emittedRows = st.emittedRows[:0]
	st.rest = nil
	st.restPos = 0
	st.lin = nil
	st.presorted = false
	if cap(s.linBuf) < len(rows) {
		s.linBuf = make([]distRow, len(rows))
		s.linHeap = make([]distRow, len(rows))
	}
	// The pristine array stays in candidate (tie) order so a drain can
	// collect the remainder already tie-sorted. The distance fill fans out
	// across the matrix's worker budget for large candidate sets (each
	// chunk writes disjoint slots of the same values, so the result is
	// bit-identical at any worker count).
	ds := s.linBuf[:len(rows)]
	s.m.fillDists(ds, rows, p)
	st.total = len(rows)
	if s.drainStreak >= presortStreak && len(rows) > 2*streamDrainAt {
		// Recent streams all blew through their lazy heads: skip the heap
		// and radix-sort everything up front. The entry conversion is
		// chunk-parallel like the fill; the radix passes stay serial — at
		// partition-loop drain sizes the per-digit offset synchronization
		// would cost more than the passes themselves.
		rem := growDrain(&s.drainA, len(ds))
		w := s.m.scanWorkers(len(ds))
		par.Chunks(len(ds), w, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				rem[i] = drainEntry{d: ds[i].d, row: int32(ds[i].row)}
			}
		})
		st.rest = st.finishDrain(rem)
		st.presorted = true
		return st
	}
	heap := s.linHeap[:len(rows)]
	copy(heap, ds)
	st.lin = linStream(heap)
	st.lin.init()
	return st
}

// presortStreak is the number of consecutive heavily-consumed streams after
// which the next stream skips the lazy heap and radix-sorts everything up
// front. A presort that turns out unnecessary (the consumer stops inside
// what the head would have covered) costs one full sort, so the bar is set
// high enough that the mode only engages in sustained full-drain regimes —
// tight t levels, where every cluster exhausts every candidate — and a
// single light cluster resets it. A variable so tests can force the mode.
var presortStreak = 8

// streamDrainAt is the number of lazily popped candidates after which a
// stream concludes the consumer is going to take most of the candidate set
// and materializes the remainder into one radix-sorted array: popping R
// candidates off a priority queue costs O(R·log R) with cache-hostile
// constants, while the radix sort is O(R) over contiguous memory. The
// switch preserves the exact (distance, row) emission order, so it is
// invisible to the consumer. A variable so tests can force drains on small
// candidate sets.
var streamDrainAt = 384

// Stream yields rows in exact ascending (distance, row) order; see
// Searcher.Stream.
type Stream struct {
	s         *Searcher
	lin       linStream // lazy binary heap; nil once drained or presorted
	presorted bool      // remainder materialized at creation, not by a drain
	emitted   int
	// emittedRows records the rows the lazy heap emitted so a drain can
	// exclude them from the pristine candidate array.
	emittedRows []int32
	total       int
	rest        []drainEntry // radix-sorted remainder after the drain switch
	restPos     int
}

// Next returns the next-nearest row, or ok=false when the candidates are
// exhausted.
func (st *Stream) Next() (row int, ok bool) {
	if st.rest != nil {
		if st.restPos >= len(st.rest) {
			return -1, false
		}
		row = int(st.rest[st.restPos].row)
		st.restPos++
		return row, true
	}
	if st.emitted >= streamDrainAt && st.total-st.emitted > streamDrainAt {
		st.drain()
		return st.Next()
	}
	st.emitted++
	row, ok = st.lin.next()
	if ok {
		st.emittedRows = append(st.emittedRows, int32(row))
	}
	return row, ok
}

// drain materializes every not-yet-emitted candidate from the pristine
// candidate-order array — already in row order, so the stable LSD radix
// sort over the distance bits alone fixes ties — and switches the stream
// to it.
func (st *Stream) drain() {
	mark := st.s.emitMark
	if len(mark) < st.s.m.n {
		mark = make([]bool, st.s.m.n)
		st.s.emitMark = mark
	}
	for _, r := range st.emittedRows {
		mark[r] = true
	}
	rem := growDrain(&st.s.drainA, 0)[:0]
	for _, e := range st.s.linBuf[:st.total] {
		if !mark[e.row] {
			rem = append(rem, drainEntry{d: e.d, row: int32(e.row)})
		}
	}
	st.s.drainA = rem
	for _, r := range st.emittedRows {
		mark[r] = false
	}
	st.lin = nil
	st.rest = st.finishDrain(rem)
}

// finishDrain radix-sorts the materialized remainder and records the drain
// in the Searcher's streak.
func (st *Stream) finishDrain(rem []drainEntry) []drainEntry {
	sorted := radixSortDrain(rem, &st.s.drainTmp, &st.s.radixCounts)
	// The radix passes ping-pong between the two scratch buffers, so the
	// sorted result may live in either; reanchor them so the next drain
	// never aliases its source and destination.
	st.s.drainA = sorted
	st.restPos = 0
	if st.s.drainStreak < 1<<30 {
		st.s.drainStreak++
	}
	return sorted
}

// drainEntry is one materialized stream candidate.
type drainEntry struct {
	d   float64
	row int32
}

func growDrain(buf *[]drainEntry, n int) []drainEntry {
	if cap(*buf) < n {
		*buf = make([]drainEntry, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// radixSortDrain sorts entries into ascending distance order with a stable
// LSD radix sort over the float64 distance bits (all distances are
// non-negative squared distances, whose IEEE-754 bit patterns order
// identically to their values). Stability keeps equal distances in input
// order, so the input must already be in its tie order. Digits whose value
// is constant across the array are skipped. The digit width adapts to the
// array: 11-bit digits keep the count array at 8 KiB for small drains
// (where clearing a 256 KiB count array would dominate), 16-bit digits
// halve the number of passes once the data outweighs the clearing. tmp and
// counts are scratch, grown as needed and kept for the next call.
func radixSortDrain(a []drainEntry, tmp *[]drainEntry, counts *[]int32) []drainEntry {
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
	b := growDrain(tmp, len(a))
	var orD, andD uint64
	andD = ^uint64(0)
	for _, e := range a {
		db := math.Float64bits(e.d)
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

func radixPassDist(src, dst []drainEntry, counts []int32, shift int, mask uint32) {
	clear(counts)
	for i := range src {
		counts[uint32(math.Float64bits(src[i].d)>>uint(shift))&mask]++
	}
	var sum int32
	for i := range counts {
		c := counts[i]
		counts[i] = sum
		sum += c
	}
	for i := range src {
		d := uint32(math.Float64bits(src[i].d)>>uint(shift)) & mask
		dst[counts[d]] = src[i]
		counts[d]++
	}
}

// linStream is a binary min-heap over precomputed (distance, row) pairs,
// popped lazily in (distance, row) order.
type linStream []distRow

func (h *linStream) init() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h linStream) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		next := l
		if r := l + 1; r < n && distRowLess(h[r], h[l]) {
			next = r
		}
		if !distRowLess(h[next], h[i]) {
			return
		}
		h[i], h[next] = h[next], h[i]
		i = next
	}
}

func (h *linStream) next() (int, bool) {
	if len(*h) == 0 {
		return -1, false
	}
	top := (*h)[0].row
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	h.siftDown(0)
	return top, true
}
