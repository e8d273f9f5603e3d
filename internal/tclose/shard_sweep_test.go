package tclose

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/micro"
	"repro/internal/privacy"
)

// This file pins the sharded construction mode's contract: privacy is
// exact (every output cluster satisfies k and t, verified independently),
// utility stays within a bounded factor of the serial reference, and the
// degenerate one-shard case is bit-identical to the serial algorithm.

// lowerShardFloor forces sharding open on small test tables.
func lowerShardFloor(t *testing.T, v int) {
	t.Helper()
	old := shardMinRows
	shardMinRows = v
	t.Cleanup(func() { shardMinRows = old })
}

// Utility bounds of the sharded result relative to the serial reference.
// Boundary reconciliation can cost utility but must stay in the same
// regime; the absolute slack covers serial references that happen to be
// (near) zero on the duplicate-heavy fixture.
const (
	shardSSEFactor = 3.0
	shardSSESlack  = 0.02
)

type shardedAlg struct {
	name    string
	serial  func(p *Prepared, k int, tl float64) (*Result, error)
	sharded func(p *Prepared, k int, tl float64) (*Result, error)
}

func shardedAlgorithms() []shardedAlg {
	return []shardedAlg{
		{
			name:    "alg1",
			serial:  func(p *Prepared, k int, tl float64) (*Result, error) { return p.Algorithm1(Run{}, k, tl) },
			sharded: func(p *Prepared, k int, tl float64) (*Result, error) { return p.Algorithm1Sharded(Run{}, k, tl) },
		},
		{
			name:    "alg2",
			serial:  func(p *Prepared, k int, tl float64) (*Result, error) { return p.Algorithm2(Run{}, k, tl) },
			sharded: func(p *Prepared, k int, tl float64) (*Result, error) { return p.Algorithm2Sharded(Run{}, k, tl) },
		},
	}
}

// normalizedSSEOf aggregates the partition and computes the release's
// normalized SSE — the utility measure the paper's figures report.
func normalizedSSEOf(t *testing.T, tbl *dataset.Table, clusters []micro.Cluster) float64 {
	t.Helper()
	anon, err := micro.Aggregate(tbl, clusters)
	if err != nil {
		t.Fatal(err)
	}
	sse, err := metrics.NormalizedSSE(tbl, anon)
	if err != nil {
		t.Fatal(err)
	}
	return sse
}

// assertExactPartition checks the clusters cover every row exactly once.
func assertExactPartition(t *testing.T, n int, clusters []micro.Cluster) {
	t.Helper()
	seen := make([]bool, n)
	for _, c := range clusters {
		for _, r := range c.Rows {
			if r < 0 || r >= n || seen[r] {
				t.Fatalf("row %d out of range or duplicated in partition", r)
			}
			seen[r] = true
		}
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("row %d missing from partition", r)
		}
	}
}

// TestShardedWorkerSweepPrivacyAndUtility is the sharded counterpart of the
// worker-count invariance sweep: for W ∈ {1, 2, 3, 8} over the PR 5
// adversarial fixtures, every sharded partition must satisfy k and t
// exactly (independently re-verified, not taken from the result), and its
// SSE must stay within the pinned bound of the serial reference. Unlike the
// serial sweep, partitions at W >= 2 are NOT required to be bit-identical —
// that is precisely the relaxation the mode trades for concurrency.
func TestShardedWorkerSweepPrivacyAndUtility(t *testing.T) {
	lowerParFloors(t)
	lowerShardFloor(t, 16)
	tables := []struct {
		name string
		tbl  *dataset.Table
	}{
		{"duplicates", duplicateHeavyTable(240, 5)},
		{"multiconf", multiConfTable(260, 31)},
	}
	ks := []int{2, 5}
	ts := []float64{0.1, 0.3}
	if testing.Short() {
		ks = ks[:1]
	}
	for _, tc := range tables {
		n := tc.tbl.Len()
		for _, alg := range shardedAlgorithms() {
			for _, k := range ks {
				for _, tl := range ts {
					want, err := alg.serial(prepareWorkers(t, tc.tbl, 1), k, tl)
					if err != nil {
						t.Fatalf("%s %s k=%d t=%v serial: %v", tc.name, alg.name, k, tl, err)
					}
					wantSSE := normalizedSSEOf(t, tc.tbl, want.Clusters)
					for _, w := range []int{1, 2, 3, 8} {
						got, err := alg.sharded(prepareWorkers(t, tc.tbl, w), k, tl)
						if err != nil {
							t.Fatalf("%s %s k=%d t=%v W=%d: %v", tc.name, alg.name, k, tl, w, err)
						}
						assertExactPartition(t, n, got.Clusters)
						if min := micro.Sizes(got.Clusters).Min; min < k {
							t.Fatalf("%s %s k=%d t=%v W=%d: min cluster size %d < k",
								tc.name, alg.name, k, tl, w, min)
						}
						tc2, err := privacy.TClosenessOf(tc.tbl, got.Clusters)
						if err != nil {
							t.Fatal(err)
						}
						if tc2 > tl {
							t.Fatalf("%s %s k=%d t=%v W=%d: verified t-closeness %v exceeds t",
								tc.name, alg.name, k, tl, w, tc2)
						}
						if got.MaxEMD > tl {
							t.Fatalf("%s %s k=%d t=%v W=%d: reported MaxEMD %v exceeds t",
								tc.name, alg.name, k, tl, w, got.MaxEMD)
						}
						if sse := normalizedSSEOf(t, tc.tbl, got.Clusters); sse > wantSSE*shardSSEFactor+shardSSESlack {
							t.Fatalf("%s %s k=%d t=%v W=%d: SSE %v beyond bound of serial %v",
								tc.name, alg.name, k, tl, w, sse, wantSSE)
						}
						if w == 1 {
							if !reflect.DeepEqual(got.Clusters, want.Clusters) {
								t.Fatalf("%s %s k=%d t=%v: W=1 sharded diverges from serial",
									tc.name, alg.name, k, tl)
							}
						}
					}
				}
			}
		}
	}
}

// TestShardedDelegatesBelowFloor pins the escape hatch: at the default
// per-shard size floor a small table cannot shard at any worker count, so
// the sharded entry points are the serial algorithms verbatim.
func TestShardedDelegatesBelowFloor(t *testing.T) {
	tbl := multiConfTable(150, 9)
	for _, alg := range shardedAlgorithms() {
		want, err := alg.serial(prepareWorkers(t, tbl, 8), 3, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := alg.sharded(prepareWorkers(t, tbl, 8), 3, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: below the shard floor the sharded run must equal serial", alg.name)
		}
	}
}

// TestShardedDeterministicPerWorkerCount: for a fixed worker count the
// sharded partition is a pure function of the inputs (the shard split and
// per-shard loops are deterministic; only *across* worker counts do
// results differ).
func TestShardedDeterministicPerWorkerCount(t *testing.T) {
	lowerShardFloor(t, 16)
	tbl := duplicateHeavyTable(220, 17)
	for _, alg := range shardedAlgorithms() {
		for _, w := range []int{2, 4} {
			a, err := alg.sharded(prepareWorkers(t, tbl, w), 2, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			b, err := alg.sharded(prepareWorkers(t, tbl, w), 2, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s W=%d: sharded run not deterministic", alg.name, w)
			}
		}
	}
}
