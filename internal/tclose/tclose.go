// Package tclose implements the paper's contribution: three
// microaggregation-based algorithms that generate k-anonymous t-close data
// sets.
//
//   - Algorithm 1 (Merge): standard microaggregation on the
//     quasi-identifiers followed by merging of clusters until every cluster's
//     confidential-attribute distribution is within EMD t of the data set
//     distribution.
//   - Algorithm 2 (k-anonymity-first): clusters are formed on the
//     quasi-identifiers and refined by record swaps to approach t-closeness;
//     because the refinement cannot always succeed (e.g. for the last
//     cluster), the partition is finished with Algorithm 1's merge step.
//   - Algorithm 3 (t-closeness-first): the cluster size k' required for
//     t-closeness is derived analytically (Proposition 2 / Eq. 3-4), the
//     records are split into k' rank subsets of the confidential attribute,
//     and clusters take one QI-nearest record per subset, satisfying
//     t-closeness by construction without ever evaluating an EMD.
//
// All three return a Result whose Clusters field partitions the input table;
// micro.Aggregate turns that partition into the anonymized release.
//
// # Prepared substrate
//
// Prepare builds the per-table substrate (normalized QI geometry, EMD
// spaces, signatures) once, and the algorithms run as its methods
// Algorithm1, Algorithm2 and Algorithm3 (plus Algorithm1Sharded and
// Algorithm2Sharded). They share the substrate across runs, support context
// cancellation and progress reporting through Run, and cache the partitions
// that depend on fewer parameters than the full (k, t) pair (MDAV per k,
// Algorithm 3 per effective cluster size). A Prepared is safe for
// concurrent runs; core.Engine is its one caller outside this package.
//
// # Performance
//
// The algorithms run on incremental data structures rather than the naive
// formulations of the paper. With n records, m distinct confidential values,
// d quasi-identifiers and cluster size k:
//
//   - Algorithm 1: MDAV's cost plus the merge loop, whose
//     per-cluster histograms, EMDs and centroids are cached and updated in
//     O(1) amortized per merge, and whose worst-cluster selection runs on a
//     lazily invalidated max-heap (O(log(n/k)) amortized per merge). The
//     merge partner comes from a linear scan over the live centroids for
//     the first merges and, once those scans have cost about one build,
//     from an index: a k-d tree over the live centroids plus a short list
//     of clusters that moved since its last build, rebuilt when that list
//     passes a quarter of the live clusters. MDAV itself routes its
//     Farthest/KNearest rounds through the micro.Searcher spatial index
//     (k-d tree over the normalized QI cube, subquadratic per round where
//     the geometry prunes) with the per-round centroid maintained
//     incrementally in O(kd) and no per-round filtering of the remaining
//     rows.
//   - Algorithm 2: farthest seeds come from the spatial index and swap
//     candidates from the Searcher's nearest-first stream (lazy while
//     consumption is light, one radix-sorted pass in the full-drain regime
//     of tight t). Each candidate is evaluated against each distinct
//     occupied confidential bin of the cluster — not each member — and each
//     evaluation runs on the exact integer prefix-sum geometry of package
//     emd with per-size crossing caches: O(occΔ) integer operations with no
//     binary searches. For the paper's k=2 single-attribute configuration
//     the refinement leaves the stream entirely: the interval-jump engine
//     (swapjump.go) exploits the closed-form two-record deviation
//     (emd.Space.TwoRecordAbsDev) being piecewise convex in the candidate
//     bin to jump straight to each accepted swap — O(avail) setup per
//     cluster instead of a full distance sort, with identical partitions.
//     Candidates whose confidential-bin signature already failed against
//     the current cluster state are skipped in O(1) where that memo still
//     pays for itself.
//   - Algorithm 3: seed and per-subset nearest queries run on Searchers
//     (one global, one per rank subset), k-d-tree-backed at any
//     dimensionality above the index crossover; drawn records are marked
//     dead rather than filtered out of the remaining and subset slices per
//     cluster. Still no EMD evaluations at all.
//
// Every optimized path is pinned to its naive reference implementation by
// property tests (identical partitions and EMDs); EMD evaluation is exact
// integer arithmetic, so incremental and batch results are bit-identical.
//
// # Parallel determinism contract
//
// The partition loops are sharded across the engine worker budget
// (micro.Matrix.Workers, set by core.WithWorkers): Algorithm 1's linear
// merge partner evaluations fan out with an order-stable argmin on the
// serial scan's (cost, index) tie key, the key the partner index answers
// on too; Algorithm 2's eviction scoring fans out
// the same way on the integer (numerator, index) key after warming the
// histogram's swap geometry (emd.Hist.WarmSwapCache) so the concurrent
// evaluations are pure reads; Algorithm 2's per-cluster distance fills are
// chunked with each chunk writing disjoint slots; and Algorithm 3's
// per-subset draws run on a reusable worker pool (internal/par) where each
// task owns exactly one rank subset and its Searcher, with results landing
// in fixed slots appended in subset order. Every seam therefore produces
// partitions bit-identical to the serial run at any worker count — pinned
// by the worker-sweep property tests in this package, the SABRE sweep, and
// the golden conformance fixtures in internal/core — and each seam keeps a
// serial fallback below its engagement floor, so a one-worker engine pays
// no fan-out overhead at all.
//
// The sharded construction mode (Algorithm1Sharded / Algorithm2Sharded,
// opted into via core.Spec.Sharded) is the deliberate exception to this
// contract. It parallelizes cluster construction itself — the sequential
// frontier the seams above cannot touch — by splitting the table into
// disjoint k-d shards (micro.Matrix.ShardRows), running the cluster loop
// independently per shard, and reconciling the boundaries (undersized
// clusters fold into their QI-nearest neighbor, then Algorithm 1's merge
// loop restores t). The output always satisfies k and t exactly,
// and is deterministic for a fixed worker budget, but is bit-identical to
// the serial run only when the effective shard count is one (a one-worker
// engine, or a table below the per-shard size floor, delegates to the
// serial algorithm outright). Choose it when wall-clock on a multi-core
// host matters more than cross-budget reproducibility; the shard sweep
// tests pin the privacy guarantee and bound the utility cost.
package tclose

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/emd"
	"repro/internal/micro"
)

// Result is the outcome of one of the t-closeness algorithms.
type Result struct {
	// Clusters partitions the input table's records.
	Clusters []micro.Cluster
	// MaxEMD is the largest Earth Mover's Distance between any cluster's
	// confidential-attribute distribution and the data set distribution,
	// maximized over all confidential attributes. MaxEMD <= T for every
	// algorithm that carries the t-closeness guarantee.
	MaxEMD float64
	// Merges counts cluster mergers performed (Algorithms 1 and 2).
	Merges int
	// Swaps counts record swaps performed (Algorithm 2).
	Swaps int
	// EffectiveK is the cluster size actually enforced: the input k for
	// Algorithms 1 and 2, and the Eq. (3)/(4) adjusted k' for Algorithm 3.
	EffectiveK int
}

// Sizes returns the min/avg/max cluster cardinalities of the result, the
// quantity the paper's Tables 1-3 report.
func (r *Result) Sizes() micro.SizeStats { return micro.Sizes(r.Clusters) }

// Parameter errors shared by the algorithms.
var (
	ErrBadK      = errors.New("tclose: k must be at least 1")
	ErrBadT      = errors.New("tclose: t must be in (0, 1]")
	ErrNoRecords = errors.New("tclose: data set has no records")
)

// Parallel-seam engagement floors. Below these sizes the fan-out overhead
// outweighs the shard work and the loops stay serial; both sides produce
// bit-identical partitions, so the floors are pure performance knobs. They
// are variables so the worker-sweep property tests can force the parallel
// paths on small tables.
var (
	// mergePartnerParMin is the live-cluster count at or above which
	// Algorithm 1's merge partner scan fans out.
	mergePartnerParMin = 1024
	// evictScanParMin is the cluster size at or above which Algorithm 2's
	// eviction scoring fans out.
	evictScanParMin = 64
	// alg3DrawParMinRows is the per-subset record count at or above which
	// Algorithm 3's per-subset nearest draws run on the worker pool.
	alg3DrawParMinRows = 256
)

// problem is the per-run view of a Prepared substrate: the validated
// parameters of one algorithm invocation plus the run-private scratch state
// of the partition loops. The substrate itself (table, points, matrix, EMD
// spaces, signatures) is shared read-only across concurrent runs; every
// mutable piece lives here.
type problem struct {
	*Prepared
	k   int
	t   float64
	run Run

	// workers is the engine worker budget (micro.Matrix.Workers) shared by
	// every parallel seam of the partition loops: the merge partner scans,
	// the swap-candidate scoring, Algorithm 3's per-subset draws and the
	// jump engine's distance fills. All seams reduce in a fixed order, so
	// partitions are bit-identical at any value; 1 runs fully serial.
	workers int

	// rowScratch backs micro.FilterRows so the partition loops do not
	// allocate per removal.
	rowScratch []bool
	// evictSkip marks duplicate-signature eviction candidates for the
	// parallel swap scoring (reused across refinement steps).
	evictSkip []bool
	// rejected memoizes candidate signatures already tried without
	// improvement against the current cluster state of Algorithm 2's swap
	// refinement; evaluated deduplicates eviction candidates within one
	// refinement step. Both are nil when the substrate's signature domain
	// overflowed.
	rejected  *sigSet
	evaluated *sigSet
}

// newRun validates the per-run parameters and builds the run-private state
// over the shared substrate.
func (prep *Prepared) newRun(run Run, k int, tLevel float64) (*problem, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	if tLevel <= 0 || tLevel > 1 {
		return nil, fmt.Errorf("%w: got %v", ErrBadT, tLevel)
	}
	if run.Ctx == nil {
		run.Ctx = context.Background()
	}
	p := &problem{
		Prepared:   prep,
		k:          k,
		t:          tLevel,
		run:        run,
		workers:    prep.mat.Workers(),
		rowScratch: make([]bool, prep.table.Len()),
	}
	if prep.sigs != nil {
		p.rejected = newSigSet(prep.sigDomain)
		p.evaluated = newSigSet(prep.sigDomain)
	}
	return p, nil
}

// interrupted returns the run context's error, checked by the partition and
// merge loops between work units.
func (p *problem) interrupted() error { return p.run.Ctx.Err() }

// reportProgress delivers a progress event when the run asked for them.
func (p *problem) reportProgress(phase string, done, total int) {
	if p.run.Progress != nil {
		p.run.Progress(Progress{Phase: phase, Done: done, Total: total})
	}
}

// sigSet is a reusable membership set over packed bin signatures: a dense
// bool slice with a touched list for compact domains (no per-use
// allocation, O(1) test-and-set, O(touched) reset), a map for huge ones.
type sigSet struct {
	dense   []bool
	touched []uint64
	sparse  map[uint64]struct{}
}

// sigDenseCap bounds the dense representation's memory (4 MiB of bools).
const sigDenseCap = 1 << 22

func newSigSet(domain uint64) *sigSet {
	if domain > 0 && domain <= sigDenseCap {
		return &sigSet{dense: make([]bool, domain)}
	}
	return &sigSet{sparse: make(map[uint64]struct{})}
}

// testAndSet reports whether sig was already present, inserting it if not.
func (s *sigSet) testAndSet(sig uint64) bool {
	if s.dense != nil {
		if s.dense[sig] {
			return true
		}
		s.dense[sig] = true
		s.touched = append(s.touched, sig)
		return false
	}
	if _, ok := s.sparse[sig]; ok {
		return true
	}
	s.sparse[sig] = struct{}{}
	return false
}

func (s *sigSet) reset() {
	if s.dense != nil {
		for _, sig := range s.touched {
			s.dense[sig] = false
		}
		s.touched = s.touched[:0]
		return
	}
	clear(s.sparse)
}

// clusterEMD returns the maximum EMD of the record set across all
// confidential attributes.
func (p *problem) clusterEMD(rows []int) float64 {
	worst := 0.0
	for _, s := range p.spaces {
		if d := s.EMDOf(rows); d > worst {
			worst = d
		}
	}
	return worst
}

// maxEMD returns the largest cluster EMD over the whole partition.
func (p *problem) maxEMD(clusters []micro.Cluster) float64 {
	worst := 0.0
	for _, c := range clusters {
		if d := p.clusterEMD(c.Rows); d > worst {
			worst = d
		}
	}
	return worst
}

// histSet is a parallel set of histograms, one per confidential attribute,
// for a single cluster.
type histSet []*emd.Hist

func (p *problem) newHistSet(rows []int) histSet {
	hs := make(histSet, len(p.spaces))
	for i, s := range p.spaces {
		hs[i] = s.HistOf(rows)
	}
	return hs
}

// emd returns the maximum EMD of the histogram set.
func (hs histSet) emd() float64 {
	worst := 0.0
	for _, h := range hs {
		if d := h.EMD(); d > worst {
			worst = d
		}
	}
	return worst
}

// emdSwap returns the maximum post-swap EMD across attributes.
func (hs histSet) emdSwap(out, in int) float64 {
	worst := 0.0
	for _, h := range hs {
		if d := h.EMDSwap(out, in); d > worst {
			worst = d
		}
	}
	return worst
}

// swap commits a record swap on every histogram; equivalent to Remove(out)
// then Add(in) but keeps per-histogram cached geometry alive when bins
// coincide.
func (hs histSet) swap(out, in int) {
	for _, h := range hs {
		h.Swap(out, in)
	}
}

func (hs histSet) merge(other histSet) {
	for i, h := range hs {
		h.Merge(other[i])
	}
}
