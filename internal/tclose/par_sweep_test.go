package tclose

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/synth"
)

// This file pins the parallel determinism contract of the partition loops:
// for every algorithm and every worker count, the partition (and every
// reported diagnostic) is bit-identical to the single-worker run. The
// parallel-seam engagement floors are lowered so that even the small test
// tables route through the sharded paths — merge partner scans and
// per-subset draws — rather than their serial fallbacks.

// lowerParFloors forces every parallel seam open for the duration of a test.
func lowerParFloors(t *testing.T) {
	t.Helper()
	oldMerge, oldDraw := mergePartnerParMin, alg3DrawParMinRows
	mergePartnerParMin, alg3DrawParMinRows = 2, 1
	t.Cleanup(func() {
		mergePartnerParMin, alg3DrawParMinRows = oldMerge, oldDraw
	})
}

// sweepWorkerCounts is the worker grid of the determinism sweep.
func sweepWorkerCounts() []int {
	return []int{1, 2, 3, 8, runtime.GOMAXPROCS(0)}
}

// duplicateHeavyTable builds an adversarial table whose records are drawn
// from a handful of distinct tuples: distance ties are everywhere (stressing
// the (distance, row) reductions) and confidential-bin signatures collide
// constantly (stressing the eviction and rejection memos).
func duplicateHeavyTable(n int, seed int64) *dataset.Table {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "A", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "B", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "S", Role: dataset.Confidential, Kind: dataset.Numeric},
	)
	tbl := dataset.MustTable(schema)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		_ = tbl.AppendNumericRow(
			float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(4)))
	}
	return tbl
}

// multiConfTable has two confidential attributes, routing Algorithm 2
// through the multi-histogram float scoring path.
func multiConfTable(n int, seed int64) *dataset.Table {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "X", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "Y", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "S1", Role: dataset.Confidential, Kind: dataset.Numeric},
		dataset.Attribute{Name: "S2", Role: dataset.Confidential, Kind: dataset.Numeric},
	)
	tbl := dataset.MustTable(schema)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		_ = tbl.AppendNumericRow(rng.Float64(), rng.Float64(),
			float64(rng.Intn(6)), rng.Float64())
	}
	return tbl
}

// prepareWorkers builds a fresh substrate tuned to the given worker count.
func prepareWorkers(t *testing.T, tbl *dataset.Table, workers int) *Prepared {
	t.Helper()
	prep, err := Prepare(tbl)
	if err != nil {
		t.Fatal(err)
	}
	prep.Matrix().SetTuning(micro.Tuning{Workers: workers})
	return prep
}

type sweepAlg struct {
	name string
	run  func(prep *Prepared, k int, tl float64) (*Result, error)
}

func sweepAlgorithms() []sweepAlg {
	return []sweepAlg{
		{"alg1", func(p *Prepared, k int, tl float64) (*Result, error) {
			return p.Algorithm1(Run{}, k, tl)
		}},
		{"alg2", func(p *Prepared, k int, tl float64) (*Result, error) {
			return p.Algorithm2(Run{}, k, tl)
		}},
		{"alg3", func(p *Prepared, k int, tl float64) (*Result, error) {
			return p.Algorithm3(Run{}, k, tl)
		}},
	}
}

// TestPartitionsWorkerCountInvariant is the central conformance sweep:
// sequential (workers = 1) and parallel partitions must be bit-identical
// for workers ∈ {1, 2, 3, 8, GOMAXPROCS} across Algorithms 1, 2 and 3,
// over the benchmark generators, a duplicate-heavy
// adversarial table and a two-confidential-attribute table.
func TestPartitionsWorkerCountInvariant(t *testing.T) {
	lowerParFloors(t)
	tables := []struct {
		name string
		tbl  *dataset.Table
	}{
		{"uniform", synth.Uniform(140, 3, 17)},
		{"census", synth.Census(150, synth.FedTax, 9)},
		{"patients", synth.PatientDischarge(160, 23)},
		{"duplicates", duplicateHeavyTable(120, 5)},
		{"multiconf", multiConfTable(130, 31)},
	}
	ks := []int{2, 5}
	ts := []float64{0.05, 0.2}
	if testing.Short() {
		tables = tables[:3]
		ks = ks[:1]
	}
	for _, tc := range tables {
		for _, alg := range sweepAlgorithms() {
			for _, k := range ks {
				for _, tl := range ts {
					base := prepareWorkers(t, tc.tbl, 1)
					want, err := alg.run(base, k, tl)
					if err != nil {
						t.Fatalf("%s %s k=%d t=%v workers=1: %v", tc.name, alg.name, k, tl, err)
					}
					for _, w := range sweepWorkerCounts()[1:] {
						prep := prepareWorkers(t, tc.tbl, w)
						got, err := alg.run(prep, k, tl)
						if err != nil {
							t.Fatalf("%s %s k=%d t=%v workers=%d: %v", tc.name, alg.name, k, tl, w, err)
						}
						if !reflect.DeepEqual(got.Clusters, want.Clusters) {
							t.Fatalf("%s %s k=%d t=%v: partition at workers=%d diverges from sequential",
								tc.name, alg.name, k, tl, w)
						}
						if got.MaxEMD != want.MaxEMD || got.Merges != want.Merges ||
							got.Swaps != want.Swaps || got.EffectiveK != want.EffectiveK {
							t.Fatalf("%s %s k=%d t=%v workers=%d: diagnostics diverge: %+v vs %+v",
								tc.name, alg.name, k, tl, w, got, want)
						}
					}
				}
			}
		}
	}
}

// TestEvictionScoringParallelLargeK drives Algorithm 2 with 64-record
// clusters, so every refinement step scores 64 evictions, and pins the
// result at 2 and 8 workers to the sequential one.
func TestEvictionScoringParallelLargeK(t *testing.T) {
	if testing.Short() {
		t.Skip("large-k worker sweep: slow property test")
	}
	tbl := synth.Census(400, synth.Fica, 77)
	k := 64
	want, err := prepareWorkers(t, tbl, 1).Algorithm2(Run{}, k, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		got, err := prepareWorkers(t, tbl, w).Algorithm2(Run{}, k, 0.04)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Clusters, want.Clusters) || got.Swaps != want.Swaps {
			t.Fatalf("workers=%d: large-k partition diverges from sequential", w)
		}
	}
}

// TestJumpEngineMatchesStreamPath pins the interval-jump refinement to the
// naive reference (a full candidate sort per cluster, shared with
// opt_prop_test), over tables with heavy value ties and at both ends of the
// dimensionality range: a 4-QI uniform table, a 3-QI table whose size
// leaves one position in its last candidate block, and a 2-QI Census table
// with the k-d index forced on, so its seeds come from the tree while its
// clusters run on the engine.
func TestJumpEngineMatchesStreamPath(t *testing.T) {
	tables := []struct {
		tbl       *dataset.Table
		crossover int
	}{
		{synth.Uniform(170, 4, 3), 0},          // 4 QI dims
		{duplicateHeavyTable(150, 41), 0},      // massive distance and bin ties
		{synth.PatientDischarge(180, 1234), 0}, // benchmark geometry
		{synth.Census(160, synth.Fica, 8), 1},  // 2 QI dims, k-d tree forced
		{synth.Uniform(4*candSetBlock+1, 3, 17), 0},
	}
	for ti, tc := range tables {
		for _, tl := range []float64{0.02, 0.1, 0.35} {
			prep, err := Prepare(tc.tbl)
			if err != nil {
				t.Fatal(err)
			}
			prep.Matrix().SetTuning(micro.Tuning{IndexCrossover: tc.crossover})
			p, err := prep.newRun(Run{}, 2, tl)
			if err != nil {
				t.Fatal(err)
			}
			all := micro.AllRows(tc.tbl.Len())
			gotClusters, gotSwaps, err := p.kAnonymityFirstPartition(all)
			if err != nil {
				t.Fatal(err)
			}
			wantClusters, wantSwaps := referenceKAnonymityFirstPartition(p, all)
			if gotSwaps != wantSwaps {
				t.Errorf("table %d t=%v: swaps=%d want %d", ti, tl, gotSwaps, wantSwaps)
			}
			if !reflect.DeepEqual(gotClusters, wantClusters) {
				t.Fatalf("table %d t=%v: jump partition diverges from reference", ti, tl)
			}
		}
	}
}
