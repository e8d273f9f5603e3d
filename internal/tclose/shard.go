package tclose

import (
	"repro/internal/micro"
	"repro/internal/par"
)

// This file implements the sharded partition-construction mode: instead of
// growing clusters from one sequential frontier over the whole table, the
// normalized QI cube is split into disjoint, spatially coherent record
// shards along the k-d tree's median cuts (micro.Matrix.ShardRows), the
// per-algorithm cluster loop runs independently inside each shard on the
// internal/par pool, and a reconciliation pass repairs the privacy
// properties along shard boundaries: undersized clusters fold into their
// QI-nearest neighbor (k-anonymity), then Algorithm 1's merge loop
// restores t-closeness exactly as it does for every cold run. k and t
// therefore hold exactly in the output; what the mode relaxes is
// bit-identity to the serial partition — cluster shapes near
// shard boundaries depend on the shard count, so results vary with the
// worker budget. Callers opt in explicitly (core.Spec.Sharded).
//
// With one shard (one worker, or a table too small to split) the drivers
// delegate to the serial algorithms unchanged, so W=1 sharded output is
// bit-identical to serial. Each Algorithm 2 shard runs the cold cluster
// loop over its own rows, interval-jump engine included.

// shardMinRows is the minimum shard size worth a dedicated worker: below
// it, per-shard Searcher builds and the reconciliation pass outweigh the
// saved frontier work. A variable so the sweep tests can shard tiny tables.
var shardMinRows = 1024

// shardRows splits the full row set for this run, capping the shard count
// at the worker budget and at what the per-shard size floor allows. nil
// means sharding is not worthwhile (or not possible) and the caller should
// run the serial algorithm.
func (p *problem) shardRows() [][]int {
	n := p.table.Len()
	floor := shardMinRows
	if 2*p.k > floor {
		floor = 2 * p.k
	}
	w := p.workers
	if maxW := n / floor; w > maxW {
		w = maxW
	}
	if w <= 1 {
		return nil
	}
	shards := p.mat.ShardRows(micro.AllRows(n), w)
	if len(shards) <= 1 {
		return nil
	}
	return shards
}

// shardProblem builds the run-private state for one shard's cluster loop.
// The Prepared substrate is shared read-only (its concurrency contract);
// everything mutable — the signature memos — is private to the
// shard, and the inner parallel seams are pinned to one worker so the
// fan-out happens across shards, not inside them. Progress is not forwarded:
// ProgressFunc is called synchronously on the run's goroutine by contract,
// which concurrent shards cannot honor.
func (p *problem) shardProblem() *problem {
	sp := &problem{
		Prepared: p.Prepared,
		k:        p.k,
		t:        p.t,
		run:      Run{Ctx: p.run.Ctx},
		workers:  1,
	}
	if p.sigs != nil {
		sp.rejected = newSigSet(p.sigDomain)
		sp.evaluated = newSigSet(p.sigDomain)
	}
	return sp
}

// Algorithm2Sharded is Algorithm 2 (k-anonymity-first) under the sharded
// construction mode: the farthest-pair seeding and swap refinement run
// independently inside each k-d shard, followed by boundary reconciliation.
// The output satisfies k-anonymity and t-closeness exactly; see the file
// comment for the determinism semantics. With an effective shard count of
// one it is Algorithm2 verbatim.
func (prep *Prepared) Algorithm2Sharded(run Run, k int, tLevel float64) (*Result, error) {
	p, err := prep.newRun(run, k, tLevel)
	if err != nil {
		return nil, err
	}
	shards := p.shardRows()
	if shards == nil {
		return prep.Algorithm2(run, k, tLevel)
	}
	clusters := make([][]micro.Cluster, len(shards))
	swaps := make([]int, len(shards))
	errs := make([]error, len(shards))
	par.Cells(len(shards), p.workers, func(i int) {
		sp := p.shardProblem()
		clusters[i], swaps[i], errs[i] = sp.kAnonymityFirstPartition(shards[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	totalSwaps := 0
	for _, s := range swaps {
		totalSwaps += s
	}
	res, err := p.reconcileShards(clusters)
	if err != nil {
		return nil, err
	}
	res.Swaps = totalSwaps
	return res, nil
}

// Algorithm1Sharded is Algorithm 1 (Merge) under the sharded construction
// mode: MDAV runs independently inside each k-d shard on a per-shard
// sub-matrix, followed by boundary reconciliation. Custom partitioners are
// not supported — they see the whole point set by contract, which has no
// per-shard meaning (core.ValidateSpec rejects the combination). With an
// effective shard count of one it is Algorithm1 with the default
// partitioner, verbatim.
func (prep *Prepared) Algorithm1Sharded(run Run, k int, tLevel float64) (*Result, error) {
	p, err := prep.newRun(run, k, tLevel)
	if err != nil {
		return nil, err
	}
	shards := p.shardRows()
	if shards == nil {
		return prep.Algorithm1(run, k, tLevel)
	}
	clusters := make([][]micro.Cluster, len(shards))
	errs := make([]error, len(shards))
	// MDAV runs on a per-shard sub-matrix with the worker budget pinned to
	// 1: the fan-out is across shards. Shards smaller than 2k come back as a
	// single cluster for the fold pass to absorb.
	tun := p.mat.TuningOf()
	tun.Workers = 1
	par.Cells(len(shards), p.workers, func(i int) {
		clusters[i], errs[i] = p.mdavRows(shards[i], p.k, tun)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p.reconcileShards(clusters)
}

// reconcileShards repairs the concatenated per-shard partitions into one
// valid release: clusters that came out undersized (possible only from
// degenerate shard sizes — the partition loops guarantee >= k otherwise)
// fold into their QI-nearest neighbor, then Algorithm 1's merge loop
// restores t-closeness as it does for every cold run.
// Cluster order is shard order then per-shard extraction order, so the
// result is deterministic for a fixed shard split.
func (p *problem) reconcileShards(perShard [][]micro.Cluster) (*Result, error) {
	var rows [][]int
	for _, cs := range perShard {
		for _, c := range cs {
			rows = append(rows, c.Rows)
		}
	}
	// Fold pass (the WarmRepair policy): the undersized population is at
	// most one cluster per degenerate shard.
	alive, folds, err := p.foldUndersized(rows, p.k, func(int, int) {})
	if err != nil {
		return nil, err
	}
	final := make([]micro.Cluster, 0, len(rows)-folds)
	for i := range rows {
		if alive[i] {
			final = append(final, micro.Cluster{Rows: rows[i]})
		}
	}
	merged, merges, maxEMD, err := p.mergeUntilTClose(final)
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
