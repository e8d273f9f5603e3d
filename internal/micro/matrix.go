package micro

import (
	"runtime"
	"sort"
	"sync"
)

// Matrix is a flat row-major point store: n rows of dim float64 values in
// one contiguous backing array, stride-indexed for cache locality. The hot
// distance scans of the partition heuristics run over a Matrix instead of a
// [][]float64 so that walking consecutive rows touches consecutive memory.
//
// A Matrix is immutable after construction except for SetTuning and
// EnableIndexCache, which must be called before the matrix is shared;
// concurrent queries (including Searchers over it) are then safe.
type Matrix struct {
	data []float64
	n    int
	dim  int
	// tun holds engine-scoped tuning; zero fields take the package
	// defaults (see Tuning).
	tun Tuning
	// cache, when enabled, shares one lazily built k-d tree across every
	// Searcher over the full ascending row set (see IndexCache).
	cache *IndexCache
}

// Tuning carries a Matrix's performance settings. A zero field, or any
// value < 1, takes the package default: GOMAXPROCS workers and a crossover
// of defaultIndexCrossover rows. Both settings are pure performance knobs —
// results are bit-identical for any value — and a Matrix's tuning is fixed
// before the matrix is shared, so concurrent runs over differently tuned
// matrices never race.
type Tuning struct {
	// Workers caps the goroutine fan-out of parallel distance scans and of
	// the k-d tree build over this matrix.
	Workers int
	// IndexCrossover is the candidate-set size at or above which Searchers
	// over this matrix build the k-d tree index.
	IndexCrossover int
}

// SetTuning installs engine-scoped tuning for this matrix. It must be
// called before the matrix is shared across goroutines.
func (m *Matrix) SetTuning(t Tuning) { m.tun = t }

// TuningOf returns the matrix's tuning overrides.
func (m *Matrix) TuningOf() Tuning { return m.tun }

// NewMatrix copies points into a flat row-major Matrix. All rows must have
// the same length.
func NewMatrix(points [][]float64) *Matrix {
	n := len(points)
	if n == 0 {
		return &Matrix{}
	}
	dim := len(points[0])
	m := &Matrix{data: make([]float64, n*dim), n: n, dim: dim}
	for i, p := range points {
		copy(m.data[i*dim:(i+1)*dim], p)
	}
	return m
}

// NewMatrixFlat wraps data — rows of dim > 0 values each, row-major — as
// a Matrix without copying. The matrix owns data from then on: the caller
// must not modify it.
func NewMatrixFlat(data []float64, dim int) *Matrix {
	return &Matrix{data: data, n: len(data) / dim, dim: dim}
}

// N returns the number of rows.
func (m *Matrix) N() int { return m.n }

// Dim returns the number of columns per row.
func (m *Matrix) Dim() int { return m.dim }

// Row returns row i as a slice aliasing the backing array.
func (m *Matrix) Row(i int) []float64 {
	return m.data[i*m.dim : (i+1)*m.dim : (i+1)*m.dim]
}

// Rows returns rows [lo, hi) as one row-major slice aliasing the backing
// array; like Row, it must be treated as read-only.
func (m *Matrix) Rows(lo, hi int) []float64 {
	return m.data[lo*m.dim : hi*m.dim : hi*m.dim]
}

// RowDist2 returns the squared Euclidean distance between row i and point p.
func (m *Matrix) RowDist2(i int, p []float64) float64 {
	row := m.data[i*m.dim : (i+1)*m.dim]
	var s float64
	for j, v := range p {
		d := row[j] - v
		s += d * d
	}
	return s
}

// parallelScanMin is the number of candidate rows below which a distance
// scan stays single-threaded: goroutine fan-out only pays for itself on
// large remainders (full-size data sets), and small scans dominate the tail
// of every partition run.
const parallelScanMin = 8192

// defaultWorkers is the worker budget of a Matrix without its own
// Workers setting. It is read once: runtime.GOMAXPROCS takes the
// scheduler lock, and the budget is consulted on every scan.
var defaultWorkers = runtime.GOMAXPROCS(0)

// Workers returns the worker budget of this matrix (at least 1): its own
// tuning when set, GOMAXPROCS otherwise. It is the fan-out cap the
// partition loops share with the distance scans, so one engine option
// (core.WithWorkers) tunes every parallel seam over the matrix.
func (m *Matrix) Workers() int {
	if w := m.tun.Workers; w >= 1 {
		return w
	}
	return defaultWorkers
}

// ScanWorkers returns the fan-out a row scan of the given size should use
// over this matrix: the worker budget above the parallel-scan floor, 1
// below it. External scan loops (e.g. the jump engine's distance fills)
// route through it so the engagement floor stays one knob shared with the
// matrix's own scans.
func (m *Matrix) ScanWorkers(nRows int) int { return m.scanWorkers(nRows) }

// scanWorkers returns the fan-out for a parallel scan over nRows.
func (m *Matrix) scanWorkers(nRows int) int {
	w := m.Workers()
	if nRows < parallelScanMin || w < 2 {
		return 1
	}
	return w
}

// chunkBounds splits [0,n) into w near-equal chunks and returns the
// boundaries of chunk i.
func chunkBounds(n, w, i int) (lo, hi int) {
	lo = i * n / w
	hi = (i + 1) * n / w
	return lo, hi
}

// Farthest returns the row among rows whose point is farthest (squared
// Euclidean) from p. Ties break toward the earliest position in rows, which
// for the ascending row sets used by the partitioners is the lowest index —
// matching the serial scan exactly, so parallel execution is deterministic.
func (m *Matrix) Farthest(rows []int, p []float64) int {
	w := m.scanWorkers(len(rows))
	if w == 1 {
		best, bestD := -1, -1.0
		for _, r := range rows {
			if d := m.RowDist2(r, p); d > bestD {
				best, bestD = r, d
			}
		}
		return best
	}
	bestRow := make([]int, w)
	bestD := make([]float64, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo, hi := chunkBounds(len(rows), w, i)
			b, bd := -1, -1.0
			for _, r := range rows[lo:hi] {
				if d := m.RowDist2(r, p); d > bd {
					b, bd = r, d
				}
			}
			bestRow[i], bestD[i] = b, bd
		}(i)
	}
	wg.Wait()
	best, bd := -1, -1.0
	for i := 0; i < w; i++ {
		if bestRow[i] >= 0 && bestD[i] > bd {
			best, bd = bestRow[i], bestD[i]
		}
	}
	return best
}

// Nearest returns the row among rows whose point is nearest to p, breaking
// ties toward the earliest position in rows.
func (m *Matrix) Nearest(rows []int, p []float64) int {
	w := m.scanWorkers(len(rows))
	if w == 1 {
		best, bestD := -1, -1.0
		for _, r := range rows {
			if d := m.RowDist2(r, p); best == -1 || d < bestD {
				best, bestD = r, d
			}
		}
		return best
	}
	bestRow := make([]int, w)
	bestD := make([]float64, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo, hi := chunkBounds(len(rows), w, i)
			b, bd := -1, -1.0
			for _, r := range rows[lo:hi] {
				if d := m.RowDist2(r, p); b == -1 || d < bd {
					b, bd = r, d
				}
			}
			bestRow[i], bestD[i] = b, bd
		}(i)
	}
	wg.Wait()
	best, bd := -1, -1.0
	for i := 0; i < w; i++ {
		if bestRow[i] >= 0 && (best == -1 || bestD[i] < bd) {
			best, bd = bestRow[i], bestD[i]
		}
	}
	return best
}

// distRow pairs a candidate row with its squared distance to the query
// point; the total order (d, then row) is the tie-breaking order every
// selection routine in the package agrees on.
type distRow struct {
	d   float64
	row int
}

func distRowLess(a, b distRow) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.row < b.row
}

// fillDists computes the distances from every candidate row to p, fanning
// out across goroutines for large candidate sets (each chunk writes a
// disjoint range, so the result is deterministic).
func (m *Matrix) fillDists(ds []distRow, rows []int, p []float64) {
	w := m.scanWorkers(len(rows))
	if w == 1 {
		for i, r := range rows {
			ds[i] = distRow{d: m.RowDist2(r, p), row: r}
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo, hi := chunkBounds(len(rows), w, i)
			for j := lo; j < hi; j++ {
				ds[j] = distRow{d: m.RowDist2(rows[j], p), row: rows[j]}
			}
		}(i)
	}
	wg.Wait()
}

// selectSmallest partially sorts ds so that ds[:k] holds the k smallest
// entries in (d, row) order. Quickselect with median-of-three pivoting gives
// O(len(ds)) expected time, and the final sort of the k survivors restores
// the exact output order of a full sort. The (d, row) order is total (rows
// are distinct), so the result does not depend on pivot choices.
func selectSmallest(ds []distRow, k int) {
	lo, hi := 0, len(ds)
	for hi-lo > 1 && k > lo && k < hi {
		pivot := medianOfThree(ds, lo, hi)
		i, j := lo, hi-1
		for i <= j {
			for distRowLess(ds[i], pivot) {
				i++
			}
			for distRowLess(pivot, ds[j]) {
				j--
			}
			if i <= j {
				ds[i], ds[j] = ds[j], ds[i]
				i++
				j--
			}
		}
		// Invariant: ds[lo:i] <= pivot <= ds[i:hi] elementwise (with the
		// middle band equal to pivot); recurse into the side containing k.
		if k <= j {
			hi = j + 1
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	sort.Slice(ds[:k], func(i, j int) bool { return distRowLess(ds[i], ds[j]) })
}

func medianOfThree(ds []distRow, lo, hi int) distRow {
	a, b, c := ds[lo], ds[lo+(hi-lo)/2], ds[hi-1]
	if distRowLess(b, a) {
		a, b = b, a
	}
	if distRowLess(c, b) {
		b = c
		if distRowLess(b, a) {
			b = a
		}
	}
	return b
}

// KNearest returns the k rows among rows whose points are nearest to p, in
// ascending (distance, row) order — the same order, including ties, as
// sorting every candidate. Cost is O(len(rows) + k·log k) instead of the
// full sort's O(len(rows)·log len(rows)).
func (m *Matrix) KNearest(rows []int, p []float64, k int) []int {
	if k > len(rows) {
		k = len(rows)
	}
	ds := make([]distRow, len(rows))
	m.fillDists(ds, rows, p)
	selectSmallest(ds, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ds[i].row
	}
	return out
}

// RunningCentroid maintains the mean point of a shrinking row set in O(dim)
// per removed row, replacing the O(remaining·dim) full rescan the partition
// heuristics used to pay at the top of every cluster round.
type RunningCentroid struct {
	m   *Matrix
	sum []float64
	cnt int
	buf []float64
}

// NewRunningCentroid sums every row of the matrix.
func NewRunningCentroid(m *Matrix) *RunningCentroid {
	rc := &RunningCentroid{
		m:   m,
		sum: make([]float64, m.dim),
		buf: make([]float64, m.dim),
		cnt: m.n,
	}
	for i := 0; i < m.n; i++ {
		row := m.Row(i)
		for j, v := range row {
			rc.sum[j] += v
		}
	}
	return rc
}

// RemoveRows subtracts the given rows from the running sum.
func (rc *RunningCentroid) RemoveRows(rows []int) {
	for _, r := range rows {
		row := rc.m.Row(r)
		for j, v := range row {
			rc.sum[j] -= v
		}
	}
	rc.cnt -= len(rows)
}

// Count returns the number of rows still in the sum.
func (rc *RunningCentroid) Count() int { return rc.cnt }

// rcExactCutoff is the remainder size below which CentroidOf recomputes the
// mean from scratch instead of using the running sum. Small remainders are
// where structurally exact distance ties live (e.g. the final two records
// are always equidistant from their midpoint), and there the winner is
// decided by rounding noise — recomputing with the same summation order as
// the naive implementation keeps the choice bit-identical to it. For large
// remainders the incremental drift (~1e-14) is far below any non-tied
// distance gap.
const rcExactCutoff = 128

// RowsNeeded reports whether CentroidOf reads its rows argument: once at
// most rcExactCutoff rows remain it rescans them, before that it reads only
// the running sum. A caller that defers dropping removed rows from its
// slice compacts it when this turns true.
func (rc *RunningCentroid) RowsNeeded() bool { return rc.cnt <= rcExactCutoff }

// CentroidOf returns the mean point of rows, which must be exactly the rows
// still in the running sum when RowsNeeded holds and is not read otherwise.
// The returned slice is reused by subsequent calls. O(dim) per call for
// large row sets, an exact O(len(rows)·dim) rescan below rcExactCutoff.
func (rc *RunningCentroid) CentroidOf(rows []int) []float64 {
	if rc.RowsNeeded() {
		for j := range rc.buf {
			rc.buf[j] = 0
		}
		for _, r := range rows {
			row := rc.m.Row(r)
			for j, v := range row {
				rc.buf[j] += v
			}
		}
		inv := 1.0 / float64(len(rows))
		for j := range rc.buf {
			rc.buf[j] *= inv
		}
		return rc.buf
	}
	inv := 1.0 / float64(rc.cnt)
	for j, v := range rc.sum {
		rc.buf[j] = v * inv
	}
	return rc.buf
}

// CentroidRows returns the mean point of the given rows in dst (allocated
// when nil), summing rows in slice order and dimensions in ascending order —
// the same float64 operation order as Centroid on a [][]float64.
func (m *Matrix) CentroidRows(rows []int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.dim)
	}
	for j := range dst {
		dst[j] = 0
	}
	for _, r := range rows {
		row := m.Row(r)
		for j, v := range row {
			dst[j] += v
		}
	}
	inv := 1.0 / float64(len(rows))
	for j := range dst {
		dst[j] *= inv
	}
	return dst
}

// CompactRows returns rows minus those marked in dead, preserving order and
// reusing rows' backing array. It is the lazy counterpart of FilterRows for
// loops that mark extracted rows as they go and need the exact slice only
// now and then.
func CompactRows(rows []int, dead []bool) []int {
	out := rows[:0]
	for _, r := range rows {
		if !dead[r] {
			out = append(out, r)
		}
	}
	return out
}

// FilterRows returns remaining minus the rows in drop, preserving order. It
// is the shared sorted-remove helper of every partition loop: scratch must
// have length at least the maximum row index plus one; it is used as a
// membership marker and reset before returning, so a single allocation
// serves every call of a partition run (the per-call map the previous
// removeRows/removeSorted copies allocated was a measurable share of the
// hot loop).
func FilterRows(remaining, drop []int, scratch []bool) []int {
	for _, r := range drop {
		scratch[r] = true
	}
	out := CompactRows(remaining, scratch)
	for _, r := range drop {
		scratch[r] = false
	}
	return out
}
