package core

import (
	"context"

	"repro/internal/micro"
	"repro/internal/tclose"
)

// WarmStats describes how a warm-start run was seeded and how much repair
// it did; see Spec.Warm. SeedEpoch is the epoch whose cached partition
// seeded the run, and the remaining fields quantify the repair frontier
// (tclose.WarmStats): the whole point of warm mode is that ScopeRows tracks
// the delta, not the table.
type WarmStats struct {
	// SeedEpoch is the table epoch whose partition seeded this run.
	SeedEpoch int
	// SeedClusters is the number of live clusters the seed carried over.
	SeedClusters int
	// Assigned counts appended rows assigned to their nearest seed cluster.
	Assigned int
	// Folded counts undersized clusters (deletion damage) folded into their
	// QI-nearest neighbor.
	Folded int
	// Split counts oversized clusters re-partitioned by MDAV.
	Split int
	// Repaired counts dirty t-violating clusters dissolved and re-extracted
	// by the swap refinement (KAnonymityFirst only).
	Repaired int
	// ScopeRows is the number of distinct rows the repair touched before
	// the finishing merge.
	ScopeRows int
}

// warmKey identifies one warm partition cache slot. The partition of every
// supported algorithm is fully determined by (Algorithm, K, T) over a given
// epoch, so together with the entry's epoch this is the "(epoch, Spec)" key
// of the cache.
type warmKey struct {
	alg Algorithm
	k   int
	t   float64
}

// warmEntry is a cached partition in the row numbering of its epoch,
// deep-copied on store so later repairs cannot alias it.
type warmEntry struct {
	epoch      int
	clusters   []micro.Cluster
	effectiveK int
}

// warmable reports whether warm-start applies to a spec: the paper's three
// algorithms. Baselines always run cold, and so do sharded runs — warmKey
// has no worker dimension and sharded partitions vary with the worker
// budget, so letting them read or seed the cache would alias
// worker-dependent results with the serial ones.
func warmable(spec Spec) bool {
	if spec.Sharded {
		return false
	}
	switch spec.Algorithm {
	case Merge, KAnonymityFirst, TClosenessFirst:
		return true
	}
	return false
}

// storeWarm caches a successful warm-eligible run's partition as the seed
// for later epochs. Entries only move forward in epoch — a concurrent run
// over an older snapshot never clobbers a newer seed.
func (e *Engine) storeWarm(spec Spec, st *engineState, clusters []micro.Cluster, effK int) {
	cp := make([]micro.Cluster, len(clusters))
	for i, c := range clusters {
		cp[i] = micro.Cluster{Rows: append([]int(nil), c.Rows...)}
	}
	key := warmKey{alg: spec.Algorithm, k: spec.K, t: spec.T}
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	if old, ok := e.warm[key]; ok && old.epoch >= st.epoch {
		return
	}
	if e.warm == nil {
		e.warm = make(map[warmKey]warmEntry)
	}
	e.warm[key] = warmEntry{epoch: st.epoch, clusters: cp, effectiveK: effK}
}

// warmSeed maps the cached partition for spec forward through the epoch log
// onto the snapshot's row numbering: append epochs keep ids stable, deletion
// epochs remap survivors and drop tombstoned rows, marking clusters that
// lost members dirty. ok is false when no cache entry exists, the entry is
// newer than the snapshot (a concurrent run raced an append), or every
// seed cluster was deleted away — the caller then runs cold.
func (e *Engine) warmSeed(spec Spec, st *engineState) (tclose.WarmSeed, int, bool) {
	key := warmKey{alg: spec.Algorithm, k: spec.K, t: spec.T}
	e.warmMu.Lock()
	ent, ok := e.warm[key]
	e.warmMu.Unlock()
	if !ok || ent.epoch > st.epoch {
		return tclose.WarmSeed{}, 0, false
	}
	clusters := make([][]int, len(ent.clusters))
	for i, c := range ent.clusters {
		clusters[i] = append([]int(nil), c.Rows...)
	}
	dirty := make([]bool, len(clusters))
	for _, ch := range st.log[ent.epoch:st.epoch] {
		if ch.oldToNew == nil {
			continue // append epoch: row ids are stable
		}
		for ci, rows := range clusters {
			kept := rows[:0]
			for _, r := range rows {
				if nr := ch.oldToNew[r]; nr >= 0 {
					kept = append(kept, nr)
				} else {
					dirty[ci] = true
				}
			}
			clusters[ci] = kept
		}
	}
	seed := tclose.WarmSeed{EffectiveK: ent.effectiveK}
	for ci, rows := range clusters {
		if len(rows) == 0 {
			continue
		}
		seed.Clusters = append(seed.Clusters, micro.Cluster{Rows: rows})
		seed.Dirty = append(seed.Dirty, dirty[ci])
	}
	if len(seed.Clusters) == 0 {
		return tclose.WarmSeed{}, 0, false
	}
	return seed, ent.epoch, true
}

// tryWarm attempts a warm-start run for the snapshot. ok is false when warm
// mode does not apply or no usable seed exists — the caller falls through
// to the cold path (and, for warm-eligible specs, seeds the cache from its
// result).
func (e *Engine) tryWarm(ctx context.Context, st *engineState, spec Spec) (*tclose.Result, *WarmStats, bool, error) {
	if !spec.Warm || !warmable(spec) {
		return nil, nil, false, nil
	}
	seed, seedEpoch, ok := e.warmSeed(spec, st)
	if !ok {
		return nil, nil, false, nil
	}
	res, ws, err := st.prep.WarmRepair(e.runOpts(ctx, spec.Algorithm), spec.K, spec.T,
		seed, spec.Algorithm == KAnonymityFirst)
	if err != nil {
		return nil, nil, true, err
	}
	return res, &WarmStats{
		SeedEpoch:    seedEpoch,
		SeedClusters: ws.SeedClusters,
		Assigned:     ws.Assigned,
		Folded:       ws.Folded,
		Split:        ws.Split,
		Repaired:     ws.Repaired,
		ScopeRows:    ws.ScopeRows,
	}, true, nil
}
