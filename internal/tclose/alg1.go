package tclose

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/micro"
	"repro/internal/par"
)

// Algorithm1 runs the paper's Algorithm 1 against the prepared substrate:
// t-closeness through microaggregation and merging of microaggregated
// groups of records.
//
// MDAV first produces a k-anonymous partition of the quasi-identifiers.
// Then, while some cluster is farther than t (in Earth Mover's Distance of
// the confidential attribute distribution) from the whole data set, the
// cluster with the greatest EMD is merged with the cluster closest to it in
// terms of quasi-identifiers. In the worst case all clusters merge into
// one, whose EMD is zero, so the algorithm always terminates with a t-close
// partition. Cost: MDAV's cost plus O((n/k)^2) for merging — O(n^2/k)
// overall. The MDAV partition is cached per k, so a t sweep at fixed k pays
// for it once.
func (prep *Prepared) Algorithm1(run Run, k int, tLevel float64) (*Result, error) {
	p, err := prep.newRun(run, k, tLevel)
	if err != nil {
		return nil, err
	}
	clusters, err := prep.defaultPartition(p.run.Ctx, k)
	if err != nil {
		if ctxErr := p.interrupted(); ctxErr != nil && errors.Is(err, ctxErr) {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("tclose: initial microaggregation: %w", err)
	}
	if err := p.interrupted(); err != nil {
		return nil, err
	}
	merged, merges, maxEMD, err := p.mergeUntilTClose(clusters)
	if err != nil {
		return nil, err
	}
	return &Result{
		Clusters:   merged,
		MaxEMD:     maxEMD,
		Merges:     merges,
		EffectiveK: p.k,
	}, nil
}

// defaultPartition returns the cached MDAV partition for k, computing it on
// first demand under the run's context (a cancelled computation is not
// cached). The cached clusters are shared read-only: the merge loop copies
// rows and never mutates the input partition. Concurrent misses may compute
// the (deterministic, identical) partition twice; one wins.
func (prep *Prepared) defaultPartition(ctx context.Context, k int) ([]micro.Cluster, error) {
	prep.cacheMu.Lock()
	if c, ok := prep.mdavByK[k]; ok {
		prep.cacheMu.Unlock()
		return c, nil
	}
	prep.cacheMu.Unlock()
	clusters, err := micro.MDAV(ctx, prep.mat, k)
	if err != nil {
		return nil, err
	}
	prep.cacheMu.Lock()
	if prep.mdavByK == nil {
		prep.mdavByK = make(map[int][]micro.Cluster)
	}
	prep.mdavByK[k] = clusters
	prep.cacheMu.Unlock()
	return clusters, nil
}

// mergeState caches, for each live cluster, its histogram set, EMD, and QI
// centroid, so that each merge step costs O(#clusters + occupied bins)
// instead of recomputing everything. The worst-cluster search runs on a lazily
// invalidated max-heap keyed by cached EMD: a merge pushes one fresh entry
// for the merged cluster, and stale entries (dead partner, outdated EMD)
// are discarded as they surface, cutting the selection to O(log #clusters)
// amortized per merge where the previous linear scan paid O(#clusters).
type mergeState struct {
	rows     [][]int
	hists    []histSet
	emds     []float64
	centroid [][]float64
	alive    []bool
	nAlive   int
	worst    worstHeap
}

// worstEntry snapshots a cluster's EMD at push time; it is stale (and
// skipped) if the cluster has since died or changed EMD.
type worstEntry struct {
	emd float64
	idx int
}

// worstHeap is a binary max-heap in (emd desc, idx asc) order — the exact
// selection order of the linear scan it replaces, which took the first
// strict improvement and therefore the lowest index among equal EMDs.
type worstHeap []worstEntry

func (h worstHeap) before(i, j int) bool {
	if h[i].emd != h[j].emd {
		return h[i].emd > h[j].emd
	}
	return h[i].idx < h[j].idx
}

func (h *worstHeap) push(e worstEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		par := (i - 1) / 2
		if !(*h).before(i, par) {
			return
		}
		(*h)[i], (*h)[par] = (*h)[par], (*h)[i]
		i = par
	}
}

func (h *worstHeap) pop() worstEntry {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i, n := 0, len(*h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		next := l
		if r := l + 1; r < n && (*h).before(r, l) {
			next = r
		}
		if !(*h).before(next, i) {
			break
		}
		(*h)[i], (*h)[next] = (*h)[next], (*h)[i]
		i = next
	}
	return top
}

// popWorst returns the live cluster with the greatest EMD (ties toward the
// lowest index), or -1 when every remaining EMD is zero or no cluster
// remains. Zero-EMD clusters are never pushed, mirroring the scan's
// strict `> 0` start.
func (st *mergeState) popWorst() (int, float64) {
	for len(st.worst) > 0 {
		e := st.worst.pop()
		if st.alive[e.idx] && st.emds[e.idx] == e.emd {
			return e.idx, e.emd
		}
	}
	return -1, 0
}

// mergeUntilTClose runs Algorithm 1's merging loop on an initial partition
// and returns the resulting partition, the number of merges performed and
// the partition's largest cluster EMD (read off the live histograms, so no
// caller needs a second EMD pass). Every cold Algorithm 1/2 run, the warm
// repair and the sharded reconciliation finish with it. The input
// partition is copied, never mutated. Cancellation is checked once per
// merge, so an abandoned run stops within one merge step (O(#clusters)
// work).
func (p *problem) mergeUntilTClose(clusters []micro.Cluster) ([]micro.Cluster, int, float64, error) {
	st := &mergeState{
		rows:     make([][]int, len(clusters)),
		hists:    make([]histSet, len(clusters)),
		emds:     make([]float64, len(clusters)),
		centroid: make([][]float64, len(clusters)),
		alive:    make([]bool, len(clusters)),
		nAlive:   len(clusters),
	}
	for i, c := range clusters {
		st.rows[i] = append([]int(nil), c.Rows...)
		st.hists[i] = p.newHistSet(c.Rows)
		st.emds[i] = st.hists[i].emd()
		st.centroid[i] = p.mat.CentroidRows(c.Rows, nil)
		st.alive[i] = true
		if st.emds[i] > 0 {
			st.worst.push(worstEntry{emd: st.emds[i], idx: i})
		}
	}
	var index partnerIndex
	merges := 0
	for st.nAlive > 1 {
		if err := p.interrupted(); err != nil {
			return nil, 0, 0, err
		}
		// Cluster farthest from the data set distribution.
		worst, worstEMD := st.popWorst()
		if worst < 0 || worstEMD <= p.t {
			break
		}
		var closest int
		if index.ready(p, st) {
			closest = index.nearest(st, worst)
		} else {
			closest = st.scanPartner(p, worst)
		}
		if closest < 0 {
			break
		}
		st.merge(p, worst, closest)
		index.absorbed(closest)
		if st.emds[worst] > 0 {
			st.worst.push(worstEntry{emd: st.emds[worst], idx: worst})
		}
		merges++
		p.reportProgress("merge", merges, 0)
	}
	out := make([]micro.Cluster, 0, st.nAlive)
	maxEMD := 0.0
	for i := range st.rows {
		if !st.alive[i] {
			continue
		}
		out = append(out, micro.Cluster{Rows: st.rows[i]})
		if st.emds[i] > maxEMD {
			maxEMD = st.emds[i]
		}
	}
	return out, merges, maxEMD, nil
}

// scanPartner chooses the merge partner of worst — the live cluster whose
// quasi-identifier centroid is nearest, the paper's policy, which protects
// utility — by evaluating every live cluster. The candidate evaluations are
// independent (cached centroids are read-only), so for large live sets
// they fan out across the worker budget with an order-stable argmin — dead
// slots evaluate to +Inf and real costs are finite, so the reduction picks
// exactly the serial scan's first strict minimum. It returns -1 when no
// live partner exists.
func (st *mergeState) scanPartner(p *problem, worst int) int {
	eval := func(j int) float64 {
		if !st.alive[j] || j == worst {
			return math.Inf(1)
		}
		return micro.Dist2(st.centroid[worst], st.centroid[j])
	}
	w := 1
	if p.workers >= 2 && st.nAlive >= mergePartnerParMin {
		w = p.workers
	}
	closest := par.ArgminFloat64(len(st.rows), w, eval)
	if closest >= 0 && (!st.alive[closest] || closest == worst) {
		// Only possible when every candidate evaluated to +Inf, i.e. no
		// live partner exists (nAlive <= 1, already excluded by the loop
		// condition); kept as a guard.
		return -1
	}
	return closest
}

// merge folds cluster b into cluster a and updates the cached centroid,
// histogram and EMD of a.
func (st *mergeState) merge(p *problem, a, b int) {
	na, nb := float64(len(st.rows[a])), float64(len(st.rows[b]))
	st.rows[a] = append(st.rows[a], st.rows[b]...)
	st.hists[a].merge(st.hists[b])
	st.emds[a] = st.hists[a].emd()
	// Weighted mean of the two centroids equals the centroid of the union.
	ca, cb := st.centroid[a], st.centroid[b]
	for j := range ca {
		ca[j] = (ca[j]*na + cb[j]*nb) / (na + nb)
	}
	st.alive[b] = false
	st.rows[b] = nil
	st.hists[b] = nil
	st.nAlive--
}

// Merge-partner index thresholds. Both sides of each produce identical
// merges; they are variables so the property tests can force the index on
// from the first merge and rebuild it every few merges.
var (
	// partnerBuildScans sets when the index is first built: once the merge
	// loop has run partnerBuildScans·log2(live clusters) linear partner
	// scans, about the cost of one build, so a loop that makes only a few
	// merges (the warm repair) never pays for one.
	partnerBuildScans = 16
	// partnerRebuildShare sets when it is rebuilt: once the clusters whose
	// centroid moved since the last build outnumber the live clusters
	// divided by partnerRebuildShare.
	partnerRebuildShare = 4
)

// partnerIndex answers scanPartner's nearest-centroid query without
// evaluating every live centroid. Every live cluster is in exactly one of
// two places: a k-d tree over the centroids as of the last build, or the
// list of clusters whose centroid has moved since — merged clusters, whose
// tree coordinates are stale. The partner is the (distance, index) minimum of
// one tree query and a scan of that list, which is exactly the linear
// scan's first strict minimum: the tree is built over the live indices in
// ascending order, so its (distance, rank) tie order is the index order,
// and its distances equal micro.Dist2 bit for bit (the same squared
// differences, summed in the same dimension order).
type partnerIndex struct {
	tree  *micro.KDTree
	moved []int
	scans int
}

// ready reports whether the partner query should use the index, building
// it once the linear scans already made have cost about one build and
// rebuilding it once the moved list outgrows its share of the live
// clusters. It counts the linear scan the caller makes when it declines.
func (x *partnerIndex) ready(p *problem, st *mergeState) bool {
	if x.tree == nil && x.scans < partnerBuildScans*bits.Len(uint(st.nAlive)) {
		x.scans++
		return false
	}
	if x.tree == nil || len(x.moved)*partnerRebuildShare > st.nAlive {
		x.build(p, st)
	}
	return true
}

// build indexes the current centroids of the live clusters.
func (x *partnerIndex) build(p *problem, st *mergeState) {
	dim := p.mat.Dim()
	data := make([]float64, len(st.centroid)*dim)
	live := make([]int, 0, st.nAlive)
	for i, c := range st.centroid {
		if st.alive[i] {
			copy(data[i*dim:], c)
			live = append(live, i)
		}
	}
	m := micro.NewMatrixFlat(data, dim)
	m.SetTuning(p.mat.TuningOf())
	x.tree = micro.NewKDTree(m, live)
	x.moved = x.moved[:0]
}

// nearest returns the live cluster nearest to worst, ties toward the lower
// index. worst joins the moved list first: its centroid changes when it
// merges.
func (x *partnerIndex) nearest(st *mergeState, worst int) int {
	if x.tree.Contains(worst) {
		x.tree.Delete(worst)
		x.moved = append(x.moved, worst)
	}
	c := st.centroid[worst]
	best, bestD := x.tree.Nearest(c), 0.0
	if best >= 0 {
		bestD = micro.Dist2(c, st.centroid[best])
	}
	for _, j := range x.moved {
		if j == worst {
			continue
		}
		if d := micro.Dist2(c, st.centroid[j]); best < 0 || d < bestD || (d == bestD && j < best) {
			best, bestD = j, d
		}
	}
	return best
}

// absorbed records that partner left the live set.
func (x *partnerIndex) absorbed(partner int) {
	if x.tree == nil {
		return
	}
	if x.tree.Contains(partner) {
		x.tree.Delete(partner)
	} else {
		x.moved = slices.DeleteFunc(x.moved, func(j int) bool { return j == partner })
	}
}
