// Package emd implements the Earth Mover's Distance with ordered distance,
// the distribution distance that defines t-closeness for numeric (and
// ordinal categorical) attributes in the paper.
//
// For an attribute taking sorted distinct values {v1 < v2 < ... < vm}, the
// ordered distance between bins is ordered_distance(vi, vj) = |i-j|/(m-1),
// and the EMD between distributions P and Q over those values has the closed
// form
//
//	EMD(P,Q) = 1/(m-1) * Σ_{i=1..m} |Σ_{j<=i} (p_j - q_j)|
//
// which is O(m) to evaluate directly. The package precomputes, per
// confidential attribute, a Space holding the value domain of the entire
// data set and the data set's own distribution Q, so that the distance from
// any cluster's empirical distribution P to Q can be computed and
// incrementally updated as records are added, removed, or swapped (the inner
// loop of the paper's Algorithm 2).
//
// # Incremental geometry
//
// All distances are evaluated in exact integer arithmetic: for a cluster of
// size s over a data set of n records, the cumulative deviation at bin b is
//
//	dev(b) = n·C(b) − s·QC(b)
//
// where C and QC are the integer prefix counts of the cluster and the data
// set, and EMD = Σ|dev(b)| / (n·s·(m−1)). Between two bins occupied by the
// cluster, C is constant, so dev is a nonincreasing affine function of the
// precomputed data set prefix QC and its absolute sum over the run has a
// closed form around a binary-searched zero crossing. A histogram therefore
// holds only its sorted list of occupied bins, each with its count, and one
// full EMD — or one virtual same-size swap, the inner-loop query of
// Algorithm 2 — costs O(occ·log m) instead of O(m), where occ ≤ min(s, m)
// is the number of occupied bins. Building or merging a histogram
// costs O(occ) (HistOf O(s·log s)), never O(m), so a whole-partition EMD
// pass costs what its clusters hold even on a domain of tens of thousands
// of distinct values. Exactness makes the incremental results bit-identical
// to the batch recomputation, so caller tie-breaking is unaffected.
//
// Integer range: the evaluation is exact while n·s·m < 2⁶³, i.e. for data
// sets up to roughly two million records.
package emd

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Space is the fixed frame of reference for EMD computations on one
// confidential attribute: the sorted distinct value domain of the whole data
// set T, the data set distribution Q over it, and the bin index of every
// record. A Space is immutable after construction and safe for concurrent
// use.
type Space struct {
	n       int       // number of records in T
	m       int       // number of distinct values (bins)
	values  []float64 // sorted distinct values
	q       []float64 // data set probability mass per bin (counts/n)
	binOf   []int     // record index -> bin index
	qCounts []int     // raw counts per bin
	qcPref  []int64   // qcPref[b] = Σ_{j<=b} qCounts[j]
	sqcPref []int64   // sqcPref[b] = Σ_{j<=b} qcPref[j] (range sums of qcPref)
	// halfCross is the first bin b with 2·qcPref[b] > n (m if none): the
	// sign crossing of the prefix level K=1 at cluster size 2, precomputed
	// so two-record histograms have a fully closed-form deviation numerator
	// (TwoRecordAbsDev).
	halfCross int
	nominal   bool // total-variation (equal ground distance) instead of ordered
}

// ErrEmpty is returned when constructing a Space from no records.
var ErrEmpty = errors.New("emd: no records")

// NewSpace builds a Space from the confidential attribute values of every
// record in the data set, indexed by record position.
func NewSpace(values []float64) (*Space, error) {
	n := len(values)
	if n == 0 {
		return nil, ErrEmpty
	}
	distinct := append([]float64(nil), values...)
	sort.Float64s(distinct)
	uniq := distinct[:0]
	for i, v := range distinct {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	uniq = append([]float64(nil), uniq...)
	s := &Space{
		n:       n,
		m:       len(uniq),
		values:  uniq,
		q:       make([]float64, len(uniq)),
		binOf:   make([]int, n),
		qCounts: make([]int, len(uniq)),
		qcPref:  make([]int64, len(uniq)),
		sqcPref: make([]int64, len(uniq)),
	}
	for i, v := range values {
		b := sort.SearchFloat64s(uniq, v)
		s.binOf[i] = b
		s.qCounts[b]++
	}
	var qc, sqc int64
	for b, c := range s.qCounts {
		s.q[b] = float64(c) / float64(n)
		qc += int64(c)
		sqc += qc
		s.qcPref[b] = qc
		s.sqcPref[b] = sqc
	}
	s.halfCross = s.levelCross(1, 2)
	return s, nil
}

// N returns the number of records in the data set the space was built from.
func (s *Space) N() int { return s.n }

// Bins returns the number of distinct values (bins) in the space.
func (s *Space) Bins() int { return s.m }

// Bin returns the bin index of record rec.
func (s *Space) Bin(rec int) int { return s.binOf[rec] }

// Value returns the attribute value of bin b.
func (s *Space) Value(b int) float64 { return s.values[b] }

// DatasetMass returns the data set probability mass of bin b.
func (s *Space) DatasetMass(b int) float64 { return s.q[b] }

// sqcAt returns sqcPref[b] with sqcAt(-1) = 0.
func (s *Space) sqcAt(b int) int64 {
	if b < 0 {
		return 0
	}
	return s.sqcPref[b]
}

// runAbsSum returns Σ_{b∈[p,q)} |nK − sz·qcPref[b]|, the absolute cumulative
// deviation over a run of bins where the cluster prefix count is the
// constant K (nK is passed premultiplied by n). Because qcPref is
// nondecreasing the deviation is nonincreasing over the run and changes sign
// at most once; the crossing is binary-searched and both sides are summed in
// closed form via the second-order prefix sqcPref. O(log(q−p)).
func (s *Space) runAbsSum(p, q int, nK, sz int64) int64 {
	if p >= q {
		return 0
	}
	cross := p + sort.Search(q-p, func(i int) bool {
		return sz*s.qcPref[p+i] > nK
	})
	return s.runAbsSumAt(p, q, nK, sz, cross)
}

// runAbsSumAt is runAbsSum with the global sign crossing for (nK, sz)
// already known: cross must be the first bin b with sz·qcPref[b] > nK (m if
// none), which the caller clamps into the run. O(1).
func (s *Space) runAbsSumAt(p, q int, nK, sz int64, cross int) int64 {
	if cross < p {
		cross = p
	} else if cross > q {
		cross = q
	}
	var total int64
	if cross > p {
		total += nK*int64(cross-p) - sz*(s.sqcAt(cross-1)-s.sqcAt(p-1))
	}
	if cross < q {
		total += sz*(s.sqcAt(q-1)-s.sqcAt(cross-1)) - nK*int64(q-cross)
	}
	return total
}

// levelCross returns the global crossing index for prefix level K at cluster
// size sz: the first bin b with sz·qcPref[b] > n·K, or m when none exists.
func (s *Space) levelCross(K, sz int64) int {
	nK := int64(s.n) * K
	return sort.Search(s.m, func(b int) bool {
		return sz*s.qcPref[b] > nK
	})
}

// Hist is the mutable empirical histogram of a cluster over a Space's bins.
// It holds only the bins the cluster occupies, each with its record count,
// so its memory and its construction cost track the cluster, never the
// number of bins m. The zero value is not usable; obtain one from
// Space.NewHist or Space.HistOf.
type Hist struct {
	space *Space
	size  int
	occ   []binCount // occupied bins in ascending bin order, counts > 0
	// absDev caches the integer numerator Σ|dev(b)| of the current EMD
	// (ordered: over b ∈ [0, m−1); nominal: over all bins). It is
	// invalidated by any mutation and rebuilt lazily, so a burst of virtual
	// swap queries against one cluster state shares a single O(occ·log m)
	// evaluation.
	absDev   int64
	absDevOK bool
	// cross caches, for the cluster size crossSize, the global sign-crossing
	// bin of every prefix level K ∈ [0, size]: cross[K] is the first bin b
	// with size·qcPref[b] > n·K. The deviation over a constant-level run is
	// then a pure O(1) closed form (runAbsSumAt) with no binary search —
	// the decisive constant for Algorithm 2's swap refinement, which
	// evaluates millions of same-size swaps against same-size histograms.
	// Rebuilt only when the size changes, so the O(size·log m) build is
	// amortized across every query on that size.
	cross     []int
	crossSize int
}

// binCount is one occupied bin of a histogram and the number of the
// cluster's records in it.
type binCount struct {
	bin, count int
}

// occFlatFactor decides when the run-decomposition is abandoned for a flat
// O(m) scan: with more than m/occFlatFactor occupied bins the binary
// searches cost more than walking every bin.
const occFlatFactor = 4

// NewHist returns an empty cluster histogram over the space. O(1).
func (s *Space) NewHist() *Hist {
	return &Hist{space: s, crossSize: -1}
}

// HistOf returns the histogram of the given record set: the records' bins
// are sorted and counted, O(s·log s) for s records with one allocation of
// O(s).
func (s *Space) HistOf(records []int) *Hist {
	h := s.NewHist()
	if len(records) == 0 {
		return h
	}
	occ := make([]binCount, len(records))
	for i, r := range records {
		occ[i] = binCount{bin: s.binOf[r], count: 1}
	}
	slices.SortFunc(occ, func(a, b binCount) int { return cmp.Compare(a.bin, b.bin) })
	w := 0
	for _, e := range occ[1:] {
		if e.bin == occ[w].bin {
			occ[w].count++
		} else {
			w++
			occ[w] = e
		}
	}
	h.occ = occ[:w+1]
	h.size = len(records)
	return h
}

// Size returns the number of records currently in the histogram.
func (h *Hist) Size() int { return h.size }

// find returns the position of bin b in occ and whether b is occupied; an
// unoccupied bin's position is where it would be inserted. O(log occ).
func (h *Hist) find(b int) (int, bool) {
	return slices.BinarySearchFunc(h.occ, b, func(e binCount, b int) int { return cmp.Compare(e.bin, b) })
}

// count returns the number of the histogram's records in bin b.
func (h *Hist) count(b int) int {
	if i, ok := h.find(b); ok {
		return h.occ[i].count
	}
	return 0
}

func (h *Hist) addBin(b int) {
	i, ok := h.find(b)
	if ok {
		h.occ[i].count++
		return
	}
	h.occ = slices.Insert(h.occ, i, binCount{bin: b, count: 1})
}

func (h *Hist) removeBin(b int) {
	i, ok := h.find(b)
	if !ok {
		panic(fmt.Sprintf("emd: removing record from empty bin %d", b))
	}
	h.occ[i].count--
	if h.occ[i].count == 0 {
		h.occ = slices.Delete(h.occ, i, i+1)
	}
}

// Add inserts record rec into the histogram.
func (h *Hist) Add(rec int) {
	h.addBin(h.space.binOf[rec])
	h.size++
	h.absDevOK = false
}

// Remove deletes record rec from the histogram. It panics if the record's
// bin is already empty, which indicates a bookkeeping bug in the caller.
func (h *Hist) Remove(rec int) {
	h.removeBin(h.space.binOf[rec])
	h.size--
	h.absDevOK = false
}

// Swap atomically removes record out and adds record in. It is equivalent to
// Remove(out) followed by Add(in) but keeps the cached deviation sum alive
// when both records share a bin.
func (h *Hist) Swap(out, in int) {
	ob, ib := h.space.binOf[out], h.space.binOf[in]
	if ob == ib {
		if _, ok := h.find(ob); !ok {
			panic(fmt.Sprintf("emd: removing record from empty bin %d", ob))
		}
		return
	}
	h.removeBin(ob)
	h.addBin(ib)
	h.absDevOK = false
}

// Merge adds every record counted in other into h. The two histograms must
// share a Space. O(occ_h + occ_other).
func (h *Hist) Merge(other *Hist) {
	if h.space != other.space {
		panic("emd: merging histograms over different spaces")
	}
	merged := make([]binCount, 0, len(h.occ)+len(other.occ))
	i, j := 0, 0
	for i < len(h.occ) && j < len(other.occ) {
		a, b := h.occ[i], other.occ[j]
		switch {
		case a.bin < b.bin:
			merged = append(merged, a)
			i++
		case a.bin > b.bin:
			merged = append(merged, b)
			j++
		default:
			merged = append(merged, binCount{bin: a.bin, count: a.count + b.count})
			i, j = i+1, j+1
		}
	}
	merged = append(merged, h.occ[i:]...)
	merged = append(merged, other.occ[j:]...)
	h.occ = merged
	h.size += other.size
	h.absDevOK = false
}

// ensureCross (re)builds the per-level crossing cache for the current
// cluster size. O(size·log m) on a size change, O(1) afterwards.
func (h *Hist) ensureCross() {
	if h.crossSize == h.size {
		return
	}
	if cap(h.cross) > h.size {
		h.cross = h.cross[:h.size+1]
	} else {
		h.cross = make([]int, h.size+1)
	}
	sz := int64(h.size)
	for K := 0; K <= h.size; K++ {
		h.cross[K] = h.space.levelCross(int64(K), sz)
	}
	h.crossSize = h.size
}

// runAbsSumLvl sums the absolute deviation over the run [p, q) at integer
// prefix level K, using the cached crossing when it is valid for the
// current size (O(1)) and the binary search otherwise (O(log(q−p))).
func (h *Hist) runAbsSumLvl(p, q int, K int64) int64 {
	s := h.space
	nK := int64(s.n) * K
	sz := int64(h.size)
	if h.crossSize == h.size {
		return s.runAbsSumAt(p, q, nK, sz, h.cross[K])
	}
	return s.runAbsSum(p, q, nK, sz)
}

// EMD returns the Earth Mover's Distance (ordered distance) between the
// cluster distribution and the data set distribution. An empty histogram or
// a single-bin space has distance 0. The result is always in [0, 1/2].
//
// Cost: O(occ·log m) for a histogram occupying occ bins (a flat O(m) walk
// once occ exceeds m/4, where O(m) is O(occ)); repeated calls on an
// unchanged histogram are O(1). It allocates nothing.
func (h *Hist) EMD() float64 {
	s := h.space
	if s.m < 2 || h.size == 0 {
		return 0
	}
	h.ensureAbsDev()
	if s.nominal {
		return float64(h.absDev) / (2 * float64(s.n) * float64(h.size))
	}
	return float64(h.absDev) / (float64(s.n) * float64(h.size) * float64(s.m-1))
}

// ensureAbsDev (re)computes the cached integer deviation numerator.
func (h *Hist) ensureAbsDev() {
	if h.absDevOK {
		return
	}
	s := h.space
	if s.nominal {
		h.absDev = h.tvAbsDev()
	} else if len(h.occ)*occFlatFactor >= s.m {
		h.absDev = h.absDevFlat(-1, -1, int64(h.size))
	} else {
		h.absDev = h.absDevRuns()
	}
	h.absDevOK = true
}

// tvAbsDev returns Σ_b |n·c(b) − s·qc(b)| over all bins in O(occ): bins the
// cluster does not occupy contribute s·qc(b), summing to s·(n − Σ_occ qc).
func (h *Hist) tvAbsDev() int64 {
	s := h.space
	n64, sz := int64(s.n), int64(h.size)
	var total, qcOcc int64
	for _, e := range h.occ {
		total += abs64(n64*int64(e.count) - sz*int64(s.qCounts[e.bin]))
		qcOcc += int64(s.qCounts[e.bin])
	}
	return total + sz*(n64-qcOcc)
}

// absDevRuns returns Σ_{b∈[0,m−1)} |dev(b)| by decomposing the bin axis into
// runs of constant cluster prefix count. O(occ·log m), O(occ) when the
// crossing cache is valid for the current size.
func (h *Hist) absDevRuns() int64 {
	end := h.space.m - 1
	var total int64
	var K int64
	p := 0
	for _, e := range h.occ {
		if e.bin >= end {
			break
		}
		total += h.runAbsSumLvl(p, e.bin, K)
		K += int64(e.count)
		p = e.bin
	}
	total += h.runAbsSumLvl(p, end, K)
	return total
}

// absDevFlat is the O(m) reference evaluation of the ordered deviation
// numerator Σ_{b∈[0,m−1)} |n·C(b) − sz·QC(b)| with optional virtual removal
// from outBin and addition to inBin (−1 to skip); sz must already account
// for the virtual size change.
func (h *Hist) absDevFlat(outBin, inBin int, sz int64) int64 {
	s := h.space
	n64 := int64(s.n)
	var C, total int64
	i := 0
	for b := 0; b < s.m-1; b++ {
		if i < len(h.occ) && h.occ[i].bin == b {
			C += int64(h.occ[i].count)
			i++
		}
		if b >= outBin && outBin >= 0 {
			// prefix counts at and after outBin lose the removed record
			C -= 1
			outBin = -1 // subtract only once; C carries forward
		}
		if b >= inBin && inBin >= 0 {
			C += 1
			inBin = -1
		}
		total += abs64(n64*C - sz*s.qcPref[b])
	}
	return total
}

// EMDSwap returns the EMD the histogram would have after removing record
// out and adding record in, without mutating the histogram. Pass out < 0 to
// only add, in < 0 to only remove.
//
// A same-size swap is evaluated incrementally against the cached deviation
// geometry in O(occΔ·log m), where occΔ is the number of occupied bins
// between the two records' bins — two O(log occ) bin lookups on nominal
// spaces.
func (h *Hist) EMDSwap(out, in int) float64 {
	s := h.space
	ob, ib := -1, -1
	if out >= 0 {
		ob = s.binOf[out]
	}
	if in >= 0 {
		ib = s.binOf[in]
	}
	if s.m < 2 {
		return 0
	}
	if ob >= 0 && ib >= 0 {
		if ob == ib || h.size == 0 {
			return h.EMD()
		}
		h.ensureAbsDev()
		if s.nominal {
			return h.tvSwap(ob, ib)
		}
		if !h.usesRunDecomposition() {
			total := h.absDevFlat(ob, ib, int64(h.size))
			return float64(total) / (float64(s.n) * float64(h.size) * float64(s.m-1))
		}
		return h.orderedSwap(ob, ib)
	}
	// One-sided add or remove changes the cluster size, renormalizing every
	// bin: fall back to the flat evaluation.
	size := h.size
	if ob >= 0 {
		size--
	}
	if ib >= 0 {
		size++
	}
	if size <= 0 {
		return 0
	}
	if s.nominal {
		return h.tvVirtualFlat(ob, ib, int64(size))
	}
	total := h.absDevFlat(ob, ib, int64(size))
	return float64(total) / (float64(s.n) * float64(size) * float64(s.m-1))
}

// tvSwap is the nominal (total variation) same-size swap query: two
// O(log occ) bin lookups.
func (h *Hist) tvSwap(ob, ib int) float64 {
	s := h.space
	return float64(h.tvSwapNum(ob, ib)) / (2 * float64(s.n) * float64(h.size))
}

// tvSwapNum is tvSwap's integer deviation numerator.
func (h *Hist) tvSwapNum(ob, ib int) int64 {
	s := h.space
	n64, sz := int64(s.n), int64(h.size)
	co, ci := int64(h.count(ob)), int64(h.count(ib))
	delta := abs64(n64*(co-1)-sz*int64(s.qCounts[ob])) - abs64(n64*co-sz*int64(s.qCounts[ob])) +
		abs64(n64*(ci+1)-sz*int64(s.qCounts[ib])) - abs64(n64*ci-sz*int64(s.qCounts[ib]))
	return h.absDev + delta
}

// tvVirtualFlat is the O(occ) nominal evaluation with a virtual size change.
func (h *Hist) tvVirtualFlat(outBin, inBin int, sz int64) float64 {
	s := h.space
	n64 := int64(s.n)
	var total, qcOcc int64
	seenOut, seenIn := false, false
	for _, e := range h.occ {
		c := int64(e.count)
		if e.bin == outBin {
			c--
			seenOut = true
		}
		if e.bin == inBin {
			c++
			seenIn = true
		}
		total += abs64(n64*c - sz*int64(s.qCounts[e.bin]))
		qcOcc += int64(s.qCounts[e.bin])
	}
	if outBin >= 0 && !seenOut {
		// virtual removal from an unoccupied bin (count goes negative);
		// consistent with the definition, used only by misbehaving callers
		total += abs64(n64*(-1)-sz*int64(s.qCounts[outBin])) - sz*int64(s.qCounts[outBin])
	}
	if inBin >= 0 && !seenIn {
		total += abs64(n64-sz*int64(s.qCounts[inBin])) - sz*int64(s.qCounts[inBin])
	}
	return float64(total+sz*(n64-qcOcc)) / (2 * float64(s.n) * float64(sz))
}

// orderedSwap evaluates the same-size swap on an ordered space by
// recomputing only the runs between the two bins: within [lo, hi) the
// cluster prefix count shifts by ±1 and dev by ±n. With the per-size
// crossing cache warm (the steady state of Algorithm 2's refinement, whose
// histograms stay at size k) every run is an O(1) closed form, so a swap
// query costs O(occΔ) with no binary searches at all.
func (h *Hist) orderedSwap(ob, ib int) float64 {
	s := h.space
	return float64(h.orderedSwapNum(ob, ib)) /
		(float64(s.n) * float64(h.size) * float64(s.m-1))
}

// orderedSwapNum is orderedSwap's integer deviation numerator.
func (h *Hist) orderedSwapNum(ob, ib int) int64 {
	s := h.space
	h.ensureCross()
	lo, hi := ob, ib
	var sigma int64 = -1 // removing below adding: prefixes in between lose one
	if ib < ob {
		lo, hi = ib, ob
		sigma = 1
	}
	end := hi
	if end > s.m-1 {
		end = s.m - 1
	}
	// Cluster prefix count K at bin lo (inclusive).
	i := 0
	var K int64
	for ; i < len(h.occ) && h.occ[i].bin <= lo; i++ {
		K += int64(h.occ[i].count)
	}
	var base, swapped int64
	p := lo
	for ; i < len(h.occ) && h.occ[i].bin < end; i++ {
		b := h.occ[i].bin
		base += h.runAbsSumLvl(p, b, K)
		swapped += h.runAbsSumLvl(p, b, K+sigma)
		K += int64(h.occ[i].count)
		p = b
	}
	base += h.runAbsSumLvl(p, end, K)
	swapped += h.runAbsSumLvl(p, end, K+sigma)
	return h.absDev - base + swapped
}

// AbsDev returns the integer deviation numerator of the current EMD: the
// EMD equals AbsDev() divided by a positive constant depending only on the
// space, its kind, and the histogram size. Two same-size histograms over
// the same space therefore compare by EMD exactly as they compare by
// AbsDev — division by the shared constant is monotone, and at the integer
// magnitudes the package admits (n·s·m < 2⁶³, numerators well under 2⁵³)
// distinct numerators always round to distinct quotients.
func (h *Hist) AbsDev() int64 {
	if h.space.m < 2 || h.size == 0 {
		return 0
	}
	h.ensureAbsDev()
	return h.absDev
}

// usesRunDecomposition reports whether ordered same-size swap queries on
// the current histogram state take the run-decomposition path (which
// lazily builds the per-size crossing cache) rather than the flat O(m)
// walk. It is the single source of truth for that branch — shared by the
// query paths and WarmSwapCache so the warmed caches always cover exactly
// the caches a query may build.
func (h *Hist) usesRunDecomposition() bool {
	return len(h.occ)*occFlatFactor < h.space.m
}

// WarmSwapCache forces the lazy caches a swap query may otherwise build on
// first use — the deviation numerator and the per-size crossing table — so
// that subsequent EMDSwap/EMDSwapAbsDev calls against the *unchanged*
// histogram are pure reads. That is the concurrency contract of Algorithm
// 2's parallel eviction scoring: warm once on the owning goroutine, then
// fan out read-only swap evaluations; any mutation (Add/Remove/Swap/Merge)
// ends the read-only phase.
func (h *Hist) WarmSwapCache() {
	if h.space.m < 2 || h.size == 0 {
		return
	}
	h.ensureAbsDev()
	if !h.space.nominal && h.usesRunDecomposition() {
		h.ensureCross()
	}
}

// EMDSwapAbsDev is EMDSwap restricted to true same-size swaps (out and in
// both records), returning the integer deviation numerator of the post-swap
// EMD instead of the quotient. It lets a caller that holds a single space
// run its accept/reject comparisons in pure integer arithmetic — bit-exactly
// equivalent to comparing the EMDSwap floats (see AbsDev) — skipping one
// float division per evaluation in Algorithm 2's innermost loop.
func (h *Hist) EMDSwapAbsDev(out, in int) int64 {
	s := h.space
	if s.m < 2 {
		return 0
	}
	ob, ib := s.binOf[out], s.binOf[in]
	if ob == ib || h.size == 0 {
		return h.AbsDev()
	}
	h.ensureAbsDev()
	if s.nominal {
		return h.tvSwapNum(ob, ib)
	}
	if !h.usesRunDecomposition() {
		return h.absDevFlat(ob, ib, int64(h.size))
	}
	return h.orderedSwapNum(ob, ib)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// TwoRecordAbsDev returns the integer deviation numerator (see AbsDev) of a
// two-record cluster occupying bins a and b on an ordered space, in closed
// form with no loops or searches: the bin axis splits into three runs of
// constant cluster prefix count C ∈ {0, 1, 2}, whose deviations n·C − 2·QC
// are sign-definite except the middle run, which crosses at the precomputed
// half-mass bin. It is the innermost evaluation of Algorithm 2's swap
// refinement at k = 2, where every candidate swap produces a two-record
// histogram; the value is identical to HistOf([2 records]).AbsDev().
func (s *Space) TwoRecordAbsDev(a, b int) int64 {
	lo, hi := a, b
	if b < a {
		lo, hi = b, a
	}
	end := s.m - 1
	if lo > end {
		lo = end
	}
	if hi > end {
		hi = end
	}
	n64 := int64(s.n)
	// Run [0, lo): C = 0, dev = −2·QC ≤ 0.
	total := 2 * s.sqcAt(lo-1)
	// Run [lo, hi): C = 1, dev = n − 2·QC, crossing sign at halfCross.
	c := s.halfCross
	if c < lo {
		c = lo
	} else if c > hi {
		c = hi
	}
	total += n64*int64(c-lo) - 2*(s.sqcAt(c-1)-s.sqcAt(lo-1))
	total += 2*(s.sqcAt(hi-1)-s.sqcAt(c-1)) - n64*int64(hi-c)
	// Run [hi, m−1): C = 2, dev = 2n − 2·QC ≥ 0.
	total += 2*n64*int64(end-hi) - 2*(s.sqcAt(end-1)-s.sqcAt(hi-1))
	return total
}

// EMDOf computes the EMD of an explicit record set against the data set
// distribution; a convenience wrapper around HistOf(records).EMD(), so it
// costs O(s·log s) for s records whatever the number of bins.
func (s *Space) EMDOf(records []int) float64 {
	return s.HistOf(records).EMD()
}

// Distance computes the closed-form ordered-distance EMD between two
// explicit distributions p and q over the same m ordered bins. Both must sum
// to 1 (the function does not renormalize). It is mainly useful in tests as
// an independent re-derivation of Hist.EMD.
func Distance(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, errors.New("emd: distributions have different lengths")
	}
	m := len(p)
	if m < 2 {
		return 0, nil
	}
	var cum, total float64
	for i := 0; i < m; i++ {
		cum += p[i] - q[i]
		if cum >= 0 {
			total += cum
		} else {
			total -= cum
		}
	}
	return total / float64(m-1), nil
}

// Nominal attributes
//
// The paper's conclusions list EMD support for nominal categorical
// attributes (values without a meaningful order, e.g. diagnoses) as future
// work, suggesting a distance that interprets the values' semantics. With
// no semantic model available, the canonical ground distance for nominal
// values is the equal distance (every pair of distinct categories at
// distance 1), under which the EMD has the closed form of the total
// variation distance:
//
//	EMD_nominal(P, Q) = 1/2 * Σ_i |p_i - q_i|
//
// NewNominalSpace builds a Space using that distance; Hist works on it
// unchanged. The result lies in [0, 1); for a cluster that is a subset of
// the data set it is at most 1 - |C|/n.
func NewNominalSpace(values []float64) (*Space, error) {
	s, err := NewSpace(values)
	if err != nil {
		return nil, err
	}
	s.nominal = true
	return s, nil
}

// Nominal reports whether the space uses the nominal (total variation)
// distance instead of the ordered distance.
func (s *Space) Nominal() bool { return s.nominal }

// NominalDistance computes the total variation distance between two
// explicit distributions over the same categories; the independent
// re-derivation of the nominal EMD used by tests.
func NominalDistance(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, errors.New("emd: distributions have different lengths")
	}
	total := 0.0
	for i := range p {
		d := p[i] - q[i]
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total / 2, nil
}
