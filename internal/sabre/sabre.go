// Package sabre implements a SABRE-style bucketization baseline for
// t-closeness (after Cao, Karras, Kalnis & Tan, "SABRE: a Sensitive
// Attribute Bucketization and REdistribution framework for t-closeness",
// VLDB Journal 2011), the closest related work the paper compares its
// t-closeness-first algorithm against in Section 3.
//
// SABRE proceeds in two phases:
//
//  1. Bucketization: the data set is partitioned into buckets by the
//     confidential attribute, greedily splitting while the resulting bucket
//     structure still admits t-close equivalence classes.
//  2. Redistribution: equivalence classes are formed by drawing from each
//     bucket a number of records proportional to the bucket's share of the
//     data set (records are picked QI-nearest to a seed, as in
//     microaggregation, to limit information loss).
//
// The paper's criticism — reproduced by the BenchmarkBaselineSABRE
// comparison — is that SABRE's greedy bucketization can produce more
// buckets than the analytically minimal number used by its Algorithm 3,
// which forces larger equivalence classes and hence more information loss.
//
// Faithfulness note: this is a reimplementation of SABRE's principle, not a
// line-by-line port (the original handles hierarchies over categorical SAs
// and several splitting heuristics). Buckets here are contiguous runs of
// the confidential-attribute ranking, split greedily at the median while a
// conservative EMD bound keeps the implied equivalence classes within t.
// The achieved t-closeness of the output is re-verified by the tests.
package sabre

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/emd"
	"repro/internal/micro"
	"repro/internal/par"
)

// Typed parameter-domain sentinels, so callers (the core spec validation,
// the serving layer) can classify invalid requests with errors.Is before
// any work is done. The messages are exactly the strings AnonymizeCtx has
// always returned inline.
var (
	// ErrBadK rejects k < 1.
	ErrBadK = errors.New("sabre: k must be at least 1")
	// ErrBadT rejects t outside (0, 1].
	ErrBadT = errors.New("sabre: t must be in (0, 1]")
)

// Result is the outcome of SABRE anonymization.
type Result struct {
	// Clusters partitions the table's records into equivalence classes.
	Clusters []micro.Cluster
	// Buckets is the number of confidential-attribute buckets the greedy
	// phase produced (compare with Algorithm 3's EffectiveK).
	Buckets int
	// ECSize is the base equivalence-class size implied by the buckets.
	ECSize int
	// MaxEMD is the achieved t-closeness level, maximized over classes and
	// confidential attributes.
	MaxEMD float64
}

// bucket is a contiguous run [lo, hi) of the confidential-attribute-sorted
// record order.
type bucket struct {
	lo, hi int
}

func (b bucket) size() int { return b.hi - b.lo }

// AnonymizeCtx partitions the table into k-anonymous equivalence classes
// aimed at t-closeness level tLevel using SABRE-style bucketization and
// redistribution. mat is the normalized quasi-identifier matrix of exactly
// the table's records, and order the records sorted by (first confidential
// value, row), the ranking the buckets slice: the engine's prepared
// substrate (tclose.Prepared.Matrix and ConfOrder), read-only here.
// Cancellation is checked once per equivalence class, so an abandoned run
// stops within one class build.
func AnonymizeCtx(ctx context.Context, t *dataset.Table, mat *micro.Matrix, order []int, k int, tLevel float64) (*Result, error) {
	if t == nil || t.Len() == 0 {
		return nil, errors.New("sabre: data set has no records")
	}
	if err := t.Schema().Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, ErrBadK
	}
	if tLevel <= 0 || tLevel > 1 {
		return nil, fmt.Errorf("%w, got %v", ErrBadT, tLevel)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := t.Len()

	buckets := bucketize(n, k, tLevel)
	clusters, err := redistribute(ctx, t, mat, order, buckets, k)
	if err != nil {
		return nil, err
	}

	spaces := make([]*emd.Space, 0, len(t.Schema().Confidentials()))
	for _, c := range t.Schema().Confidentials() {
		s, err := emd.NewSpace(t.ColumnView(c))
		if err != nil {
			return nil, err
		}
		spaces = append(spaces, s)
	}
	worst := 0.0
	for _, c := range clusters {
		for _, s := range spaces {
			if d := s.EMDOf(c.Rows); d > worst {
				worst = d
			}
		}
	}
	return &Result{
		Clusters: clusters,
		Buckets:  len(buckets),
		ECSize:   ecSize(n, k, buckets),
		MaxEMD:   worst,
	}, nil
}

// bucketize greedily splits the rank domain [0, n) at bucket medians until
// the conservative worst-case EMD of a proportional equivalence class over
// the buckets drops to t. Splitting the largest bucket first reduces the
// dominant within-bucket spread term fastest, mirroring SABRE's
// dispersion-driven greedy order. Greedy splitting stops at the *first*
// feasible configuration, which is why it may need more buckets (and hence
// larger equivalence classes) than the analytic Eq. (3) minimum — the
// comparison the paper draws in Section 3.
func bucketize(n, k int, tLevel float64) []bucket {
	buckets := []bucket{{lo: 0, hi: n}}
	for worstECBound(n, ecSize(n, k, buckets), buckets) > tLevel {
		largest := 0
		for i, b := range buckets {
			if b.size() > buckets[largest].size() {
				largest = i
			}
		}
		b := buckets[largest]
		if b.size() < 2 {
			// Fully split and still infeasible: the caller's ecSize will be
			// n, producing a single all-records class with EMD 0.
			break
		}
		mid := b.lo + b.size()/2
		next := make([]bucket, 0, len(buckets)+1)
		next = append(next, buckets[:largest]...)
		next = append(next, bucket{b.lo, mid}, bucket{mid, b.hi})
		next = append(next, buckets[largest+1:]...)
		buckets = next
	}
	return buckets
}

// ecSize returns the equivalence-class size implied by the buckets: at
// least k, and large enough that the smallest bucket contributes at least
// one record per class (so proportional representation is possible).
func ecSize(n, k int, buckets []bucket) int {
	smallest := n
	for _, b := range buckets {
		if b.size() < smallest {
			smallest = b.size()
		}
	}
	if smallest == 0 {
		return k
	}
	// m * smallest/n >= 1  =>  m >= n/smallest.
	m := (n + smallest - 1) / smallest
	if m < k {
		m = k
	}
	if m > n {
		m = n
	}
	return m
}

// drawCounts returns how many records an equivalence class of size m draws
// from each bucket: floor(m·f_B), at least 1, with the remainder assigned
// to the buckets with the most proportional slack.
func drawCounts(n, m int, buckets []bucket) []int {
	counts := make([]int, len(buckets))
	total := 0
	for i, b := range buckets {
		c := m * b.size() / n
		if c < 1 {
			c = 1
		}
		counts[i] = c
		total += c
	}
	for total < m {
		best, slack := 0, -1.0
		for i, b := range buckets {
			s := float64(b.size()) - float64(counts[i])*float64(n)/float64(m)
			if s > slack {
				best, slack = i, s
			}
		}
		counts[best]++
		total++
	}
	return counts
}

// worstECBound conservatively bounds the EMD of an equivalence class of
// size m drawing drawCounts records from each bucket, wherever in the
// bucket those records sit. Two components, in ordered-distance units:
//
//   - within-bucket spread: the class mass assigned to bucket B may need to
//     travel across the whole bucket, at most (|B|-1)/(n-1) ranks
//     (analogous to the Proposition 2 per-subset cost, without the factor
//     1/2: conservative).
//   - proportional mismatch: |c_B/m − f_B| mass per bucket is in the wrong
//     bucket and may travel up to half the domain.
func worstECBound(n, m int, buckets []bucket) float64 {
	if m <= 0 {
		return 1
	}
	if m >= n {
		return 0 // a single class holding everything matches exactly
	}
	counts := drawCounts(n, m, buckets)
	nf, mf := float64(n), float64(m)
	var within, mismatch float64
	for i, b := range buckets {
		f := float64(b.size()) / nf
		classShare := float64(counts[i]) / mf
		if b.size() > 1 {
			within += classShare * float64(b.size()-1) / (nf - 1)
		}
		d := classShare - f
		if d < 0 {
			d = -d
		}
		mismatch += d
	}
	return within + mismatch*0.5
}

// sabreDrawParMinRows is the mean pool size at or above which the
// per-bucket draws of one equivalence class fan out across the matrix
// worker budget. Below it the pool handoff costs more than the draws; both
// sides produce identical classes. A variable so the worker-sweep tests can
// force the parallel path on small tables.
var sabreDrawParMinRows = 256

// redistribute forms the equivalence classes: MDAV-style seeds (the record
// farthest from the centroid of the remaining records), each class drawing
// its proportional share of QI-nearest records from every bucket. The
// neighbor queries run on micro.Searchers — one over the whole record set
// (in confidential-ranking order, the concatenation of the bucket pools)
// for the seeds, one per bucket pool for the draws — which route through a
// k-d tree over the QI cube above the crossover and fall back to the linear
// scans below it. The centroid of the remaining records is maintained as a
// running sum instead of a per-class rescan.
//
// The per-bucket draws of one class are independent shards — each touches
// only its own pool slice and Searcher — so they run on a reusable worker
// pool (repro/internal/par) when the pools are large enough to pay for the
// handoff. Each bucket's draws land in a fixed slot and are concatenated in
// bucket order, so the class is bit-identical to the serial loop's at any
// worker count (micro.Matrix.Workers, the engine's WithWorkers budget).
func redistribute(ctx context.Context, t *dataset.Table, mat *micro.Matrix, order []int, buckets []bucket, k int) ([]micro.Cluster, error) {
	n := t.Len()
	m := ecSize(n, k, buckets)
	// Per-bucket record pools in confidential order; their concatenation in
	// bucket order is exactly `order`, the tie-break order of every seed
	// query.
	pools := make([][]int, len(buckets))
	poolSearch := make([]*micro.Searcher, len(buckets))
	for i, b := range buckets {
		pools[i] = append([]int(nil), order[b.lo:b.hi]...)
		poolSearch[i] = mat.NewSearcher(pools[i])
	}
	alive := append([]int(nil), order...)
	global := mat.NewSearcher(alive)
	rc := micro.NewRunningCentroid(mat, micro.AllRows(n))
	scratch := make([]bool, n)
	counts := drawCounts(n, m, buckets)
	pool := par.NewPool(1)
	if w := mat.Workers(); w >= 2 && len(buckets) >= 2 && n/len(buckets) >= sabreDrawParMinRows {
		pool = par.NewPool(w)
	}
	defer pool.Close()
	drawn := make([][]int, len(buckets))
	var clusters []micro.Cluster
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		left := len(alive)
		if left == 0 {
			break
		}
		if left < m+k { // not enough for another full class: flush the rest
			rows := make([]int, 0, left)
			for i := range pools {
				rows = append(rows, pools[i]...)
				pools[i] = nil
			}
			if len(clusters) > 0 && len(rows) < k {
				last := &clusters[len(clusters)-1]
				last.Rows = append(last.Rows, rows...)
			} else {
				clusters = append(clusters, micro.Cluster{Rows: rows})
			}
			break
		}
		// Seed: record farthest from the centroid of all remaining records.
		seed := global.Farthest(alive, rc.CentroidOf(alive))
		pool.Run(len(pools), func(i int) {
			take := counts[i]
			if take > len(pools[i]) {
				take = len(pools[i])
			}
			drawn[i] = drawn[i][:0]
			for j := 0; j < take; j++ {
				x := poolSearch[i].Nearest(pools[i], mat.Row(seed))
				pools[i] = removeOne(pools[i], x)
				poolSearch[i].RemoveOne(x)
				drawn[i] = append(drawn[i], x)
			}
		})
		rows := make([]int, 0, m)
		for i := range drawn {
			rows = append(rows, drawn[i]...)
		}
		alive = micro.FilterRows(alive, rows, scratch)
		rc.RemoveRows(rows)
		global.Remove(rows)
		clusters = append(clusters, micro.Cluster{Rows: rows})
	}
	return clusters, nil
}

func removeOne(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
