package tclose

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/synth"
)

// This file pins the optimized Algorithm 2 machinery — the candidate set's
// block minima and drain, eviction deduplication by bin signature,
// rejected-signature memoization, incremental centroids — to the naive
// control flow the package shipped with: full candidate sort, every
// eviction evaluated, fresh centroid rescans. Both sides share the exact integer EMD engine (itself pinned to
// the floating-point reference in package emd), so the partitions must be
// identical, not merely close.

// referenceGenerateCluster is the pre-optimization swap refinement.
func referenceGenerateCluster(p *problem, points [][]float64, x int, avail []int) (cluster []int, swaps int) {
	if len(avail) < 2*p.k {
		return append([]int(nil), avail...), 0
	}
	cands := make([]int, len(avail))
	copy(cands, avail)
	px := points[x]
	sort.Slice(cands, func(i, j int) bool {
		di, dj := micro.Dist2(points[cands[i]], px), micro.Dist2(points[cands[j]], px)
		if di != dj {
			return di < dj
		}
		return cands[i] < cands[j]
	})
	cluster = append([]int(nil), cands[:p.k]...)
	hs := p.newHistSet(cluster)
	cur := hs.emd()
	for _, y := range cands[p.k:] {
		if cur <= p.t {
			break
		}
		bestIdx, bestEMD := -1, cur
		for i, out := range cluster {
			if d := hs.emdSwap(out, y); d < bestEMD {
				bestIdx, bestEMD = i, d
			}
		}
		if bestIdx >= 0 {
			for _, h := range hs {
				h.Remove(cluster[bestIdx])
				h.Add(y)
			}
			cluster[bestIdx] = y
			cur = bestEMD
			swaps++
		}
	}
	return cluster, swaps
}

// referenceKAnonymityFirstPartition is the pre-optimization outer loop
// over an ascending row pool: fresh centroid rescan per round and map-based
// removal.
func referenceKAnonymityFirstPartition(p *problem, pool []int) ([]micro.Cluster, int) {
	points := p.pointsCopy()
	avail := append([]int(nil), pool...)
	removeSorted := func(avail, drop []int) []int {
		dropSet := make(map[int]struct{}, len(drop))
		for _, r := range drop {
			dropSet[r] = struct{}{}
		}
		out := avail[:0]
		for _, r := range avail {
			if _, gone := dropSet[r]; !gone {
				out = append(out, r)
			}
		}
		return out
	}
	farthest := func(rows []int, q []float64) int {
		best, bestD := -1, -1.0
		for _, r := range rows {
			if d := micro.Dist2(points[r], q); d > bestD {
				best, bestD = r, d
			}
		}
		return best
	}
	var clusters []micro.Cluster
	swaps := 0
	for len(avail) > 0 {
		xa := micro.Centroid(points, avail)
		x0 := farthest(avail, xa)
		c, s := referenceGenerateCluster(p, points, x0, avail)
		swaps += s
		avail = removeSorted(avail, c)
		clusters = append(clusters, micro.Cluster{Rows: c})
		if len(avail) == 0 {
			break
		}
		x1 := farthest(avail, points[x0])
		c, s = referenceGenerateCluster(p, points, x1, avail)
		swaps += s
		avail = removeSorted(avail, c)
		clusters = append(clusters, micro.Cluster{Rows: c})
	}
	return clusters, swaps
}

// TestKAnonymityFirstPartitionMatchesReference compares the optimized
// partition against the naive reference over the synthetic generators the
// benchmarks use, across the (k, t) grid corners. The drain threshold is
// forced low, so clusters that take more than 16 candidates finish on the
// radix-sorted remainder.
func TestKAnonymityFirstPartitionMatchesReference(t *testing.T) {
	defer func(d int) { drainAt = d }(drainAt)
	drainAt = 16
	tables := []struct {
		name string
		tbl  *dataset.Table
	}{
		{"uniform", synth.Uniform(150, 3, 11)},
		{"census", synth.Census(160, synth.FedTax, 5)},
		{"patients", synth.PatientDischarge(170, 99)},
	}
	for _, tc := range tables {
		name := tc.name
		for _, k := range []int{1, 2, 3, 5, 7, 10} {
			for _, tl := range []float64{0.03, 0.12, 0.3} {
				tbl := tc.tbl
				p, err := newProblem(tbl, k, tl)
				if err != nil {
					t.Fatal(err)
				}
				all := micro.AllRows(tbl.Len())
				gotClusters, gotSwaps, err := p.kAnonymityFirstPartition(all)
				if err != nil {
					t.Fatal(err)
				}
				wantClusters, wantSwaps := referenceKAnonymityFirstPartition(p, all)
				if gotSwaps != wantSwaps {
					t.Errorf("%s k=%d t=%v: swaps=%d want %d", name, k, tl, gotSwaps, wantSwaps)
				}
				if !reflect.DeepEqual(gotClusters, wantClusters) {
					t.Fatalf("%s k=%d t=%v: partitions diverge\n got %v\nwant %v",
						name, k, tl, gotClusters, wantClusters)
				}
			}
		}
	}
}

// TestPoolPartitionMatchesReference runs the partition loop over random
// ascending row pools, the way the warm swap repair and the shards call it,
// and compares it with the naive reference over the same pool. Pools of
// 150–600 rows put the loop's centroid on the running sum (above 128
// remaining rows) as well as on the exact rescan, and k = 2 runs the
// interval-jump engine over a ranking restricted to the pool.
func TestPoolPartitionMatchesReference(t *testing.T) {
	tables := []struct {
		name string
		tbl  *dataset.Table
	}{
		{"patients", synth.PatientDischarge(900, 61)},
		{"duplicates", duplicateHeavyTable(900, 62)},
	}
	rng := rand.New(rand.NewSource(63))
	for _, tc := range tables {
		for _, k := range []int{2, 3, 5} {
			for _, tl := range []float64{0.05, 0.15, 0.35} {
				pool := rng.Perm(tc.tbl.Len())[:150+rng.Intn(451)]
				sort.Ints(pool)
				p, err := newProblem(tc.tbl, k, tl)
				if err != nil {
					t.Fatal(err)
				}
				gotClusters, gotSwaps, err := p.kAnonymityFirstPartition(pool)
				if err != nil {
					t.Fatal(err)
				}
				wantClusters, wantSwaps := referenceKAnonymityFirstPartition(p, pool)
				if gotSwaps != wantSwaps {
					t.Errorf("%s k=%d t=%v pool=%d: swaps=%d want %d",
						tc.name, k, tl, len(pool), gotSwaps, wantSwaps)
				}
				if !reflect.DeepEqual(gotClusters, wantClusters) {
					t.Fatalf("%s k=%d t=%v pool=%d: partitions diverge", tc.name, k, tl, len(pool))
				}
			}
		}
	}
}

// TestAlgorithm2EndToEndMatchesReference runs the full Algorithm 2 (swap
// refinement plus finishing merge) and checks the final partition and
// MaxEMD against a run seeded with the reference partition: the merge loop
// is deterministic given its input partition, so end-to-end equality
// follows when the partitions match.
func TestAlgorithm2EndToEndMatchesReference(t *testing.T) {
	tbl := synth.Census(200, synth.Fica, 3)
	for _, k := range []int{2, 5} {
		for _, tl := range []float64{0.05, 0.2} {
			res, err := algorithm2(tbl, k, tl)
			if err != nil {
				t.Fatal(err)
			}
			p, err := newProblem(tbl, k, tl)
			if err != nil {
				t.Fatal(err)
			}
			refPart, _ := referenceKAnonymityFirstPartition(p, micro.AllRows(tbl.Len()))
			refMerged, _, _, err := p.mergeUntilTClose(refPart)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Clusters, refMerged) {
				t.Fatalf("k=%d t=%v: end-to-end partition diverges from reference", k, tl)
			}
			if got, want := res.MaxEMD, p.maxEMD(refMerged); got != want {
				t.Fatalf("k=%d t=%v: MaxEMD %v want %v", k, tl, got, want)
			}
		}
	}
}
