package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// The golden conformance suite pins the exact partitions and releases of
// all six algorithms over a committed fixture: a small deterministic
// synthetic table crossed with a (k, t) grid. Any refactor that silently
// changes a partition — a reordered tie-break, a drifted float, a
// mis-sharded loop — fails here immediately and reproducibly, rather than
// only when a property test happens to draw the right table. The fixture
// lives in testdata/golden_conformance.json; regenerate it with
//
//	go test ./internal/core -run TestGoldenConformance -update-golden
//
// and review the diff like any other behavior change: a hash moving IS the
// behavior change.

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_conformance.json from the current implementation")

const goldenPath = "testdata/golden_conformance.json"

// goldenCell is the pinned outcome of one (dataset, algorithm, k, t) run.
type goldenCell struct {
	Dataset    string    `json:"dataset"`
	Algorithm  Algorithm `json:"algorithm"`
	K          int       `json:"k"`
	T          float64   `json:"t"`
	Partition  string    `json:"partition_sha256"`
	Output     string    `json:"output_sha256"`
	MaxEMD     string    `json:"max_emd_hex"`
	EffectiveK int       `json:"effective_k"`
	Merges     int       `json:"merges"`
	Swaps      int       `json:"swaps"`
}

type goldenDoc struct {
	N     int              `json:"n"`
	Seed  int64            `json:"seed"`
	Cells []goldenCell     `json:"cells"`
	Warm  []goldenWarmCell `json:"warm_cells"`
}

// goldenWarmCell is the pinned outcome of one warm re-release on the
// patients fixture: the run after an append epoch, or the run after the
// delete epoch that follows it, whose tombstones leave clusters undersized
// so the repair folds them.
type goldenWarmCell struct {
	Algorithm  Algorithm `json:"algorithm"`
	K          int       `json:"k"`
	T          float64   `json:"t"`
	Epoch      string    `json:"epoch"`
	Partition  string    `json:"partition_sha256"`
	Output     string    `json:"output_sha256"`
	MaxEMD     string    `json:"max_emd_hex"`
	EffectiveK int       `json:"effective_k"`
	Merges     int       `json:"merges"`
	Swaps      int       `json:"swaps"`
	Warm       WarmStats `json:"warm"`
}

// goldenFixture is one (table, algorithms) pairing of the conformance
// suite. The microaggregation algorithms and the partition-shaped baselines
// run on the 7-QI patient-discharge geometry; Incognito runs on the 2-QI
// Census geometry, where its full-domain lattice is small enough for
// tier-1 time (the 7-QI lattice costs seconds per cell without adding
// conformance coverage — the lattice walk itself is the pinned behavior).
type goldenFixture struct {
	name string
	tbl  *dataset.Table
	algs []Algorithm
}

// goldenFixtures builds the fixture inputs: small enough that the full
// grid stays in tier-1 time, large enough that every algorithm forms
// multiple clusters, merges and swaps at the grid's tight cells.
func goldenFixtures() []goldenFixture {
	return []goldenFixture{
		{"patients", synth.PatientDischarge(240, 7),
			[]Algorithm{Merge, KAnonymityFirst, TClosenessFirst, MondrianBaseline, SABREBaseline}},
		{"census", synth.Census(240, synth.FedTax, 7),
			[]Algorithm{Merge, KAnonymityFirst, TClosenessFirst, MondrianBaseline, SABREBaseline, IncognitoBaseline}},
	}
}

// hashPartition hashes the exact cluster structure: cluster count, then
// each cluster's row ids in order. Any change in membership, ordering or
// grouping changes the digest.
func hashPartition(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(res.Clusters)))
	h.Write(buf[:])
	for _, c := range res.Clusters {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(c.Rows)))
		h.Write(buf[:])
		for _, r := range c.Rows {
			binary.LittleEndian.PutUint64(buf[:], uint64(r))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashOutput hashes the released table bit-exactly: every cell's float64
// bits (and label where categorical), row-major.
func hashOutput(t *dataset.Table) string {
	h := sha256.New()
	var buf [8]byte
	for row := 0; row < t.Len(); row++ {
		for col := 0; col < t.Width(); col++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(t.Value(row, col)))
			h.Write(buf[:])
			if t.Schema().Attr(col).Kind == dataset.Categorical {
				h.Write([]byte(t.Label(row, col)))
				h.Write([]byte{0})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenConformance(t *testing.T) {
	var got goldenDoc
	got.N = 240
	got.Seed = 7
	for _, fix := range goldenFixtures() {
		eng, err := NewEngine(fix.tbl)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range fix.algs {
			for _, k := range []int{2, 4} {
				for _, tl := range []float64{0.08, 0.2} {
					res, err := eng.Run(context.Background(), Spec{
						Algorithm: alg, K: k, T: tl, SkipAssessment: true,
					})
					if err != nil {
						t.Fatalf("%s %v k=%d t=%v: %v", fix.name, alg, k, tl, err)
					}
					got.Cells = append(got.Cells, goldenCell{
						Dataset:    fix.name,
						Algorithm:  alg,
						K:          k,
						T:          tl,
						Partition:  hashPartition(res),
						Output:     hashOutput(res.Anonymized),
						MaxEMD:     strconv.FormatFloat(res.MaxEMD, 'x', -1, 64),
						EffectiveK: res.EffectiveK,
						Merges:     res.Merges,
						Swaps:      res.Swaps,
					})
				}
			}
		}
	}
	got.Warm = goldenWarmCells(t)
	if *updateGolden {
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cells", goldenPath, len(got.Cells))
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update-golden): %v", err)
	}
	var want goldenDoc
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.N != got.N || want.Seed != got.Seed {
		t.Fatalf("fixture header mismatch: file n=%d seed=%d, test n=%d seed=%d",
			want.N, want.Seed, got.N, got.Seed)
	}
	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("fixture has %d cells, test produced %d (regenerate with -update-golden)",
			len(want.Cells), len(got.Cells))
	}
	for i, w := range want.Cells {
		g := got.Cells[i]
		if w != g {
			t.Errorf("cell %s/%v k=%d t=%v diverges from golden fixture:\n got %+v\nwant %+v\n"+
				"(a hash moving here means partitions or releases changed bit-for-bit; "+
				"if intentional, regenerate with -update-golden and explain in the PR)",
				w.Dataset, w.Algorithm, w.K, w.T, g, w)
		}
	}
	if len(want.Warm) != len(got.Warm) {
		t.Fatalf("fixture has %d warm cells, test produced %d (regenerate with -update-golden)",
			len(want.Warm), len(got.Warm))
	}
	for i, w := range want.Warm {
		if g := got.Warm[i]; w != g {
			t.Errorf("warm cell %v k=%d t=%v after %s diverges from golden fixture:\n got %+v\nwant %+v",
				w.Algorithm, w.K, w.T, w.Epoch, g, w)
		}
	}
}

// goldenWarmCells seeds a warm cache for each paper algorithm on the
// patients fixture, appends 24 rows (the fixture generator's next rows),
// re-releases warm, deletes every fifth row and re-releases warm again.
// The delete epoch must fold undersized clusters, so the cells pin the
// assign, fold and finishing-merge passes of the warm repair.
func goldenWarmCells(t *testing.T) []goldenWarmCell {
	t.Helper()
	const n, extra = 240, 24
	full := synth.PatientDischarge(n+extra, 7)
	var dead []int
	for r := 0; r < n+extra; r += 5 {
		dead = append(dead, r)
	}
	ctx := context.Background()
	var cells []goldenWarmCell
	for _, alg := range []Algorithm{Merge, KAnonymityFirst, TClosenessFirst} {
		base, err := full.Subset(iota0(n))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(base)
		if err != nil {
			t.Fatal(err)
		}
		spec := Spec{Algorithm: alg, K: 3, T: 0.15, SkipAssessment: true, Warm: true}
		if _, err := eng.Run(ctx, spec); err != nil { // seeds the warm cache
			t.Fatalf("warm %v seed: %v", alg, err)
		}
		epochs := []struct {
			name string
			do   func() error
		}{
			{"append", func() error { return eng.Append(appendRows(full, n, n+extra)...) }},
			{"delete", func() error { return eng.Delete(dead...) }},
		}
		for _, ep := range epochs {
			if err := ep.do(); err != nil {
				t.Fatalf("warm %v %s epoch: %v", alg, ep.name, err)
			}
			res, err := eng.Run(ctx, spec)
			if err != nil {
				t.Fatalf("warm %v after %s: %v", alg, ep.name, err)
			}
			if res.Warm == nil {
				t.Fatalf("warm %v after %s: run missed the warm cache", alg, ep.name)
			}
			if ep.name == "delete" && res.Warm.Folded == 0 {
				t.Fatalf("warm %v after delete: no cluster folded, the cell does not cover the fold pass", alg)
			}
			cells = append(cells, goldenWarmCell{
				Algorithm:  alg,
				K:          spec.K,
				T:          spec.T,
				Epoch:      ep.name,
				Partition:  hashPartition(res),
				Output:     hashOutput(res.Anonymized),
				MaxEMD:     strconv.FormatFloat(res.MaxEMD, 'x', -1, 64),
				EffectiveK: res.EffectiveK,
				Merges:     res.Merges,
				Swaps:      res.Swaps,
				Warm:       *res.Warm,
			})
		}
	}
	return cells
}

// TestGoldenConformanceWorkerSweep re-runs a tight grid corner of every
// algorithm at several worker counts against the same fixture hashes,
// wiring the parallel determinism contract into the golden suite itself.
func TestGoldenConformanceWorkerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("golden worker sweep: slow conformance test")
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update-golden): %v", err)
	}
	var want goldenDoc
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	pinned := make(map[string]goldenCell, len(want.Cells))
	for _, c := range want.Cells {
		pinned[fmt.Sprintf("%s/%v/%d/%v", c.Dataset, c.Algorithm, c.K, c.T)] = c
	}
	for _, fix := range goldenFixtures() {
		for _, workers := range []int{2, 8} {
			eng, err := NewEngine(fix.tbl, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range fix.algs {
				res, err := eng.Run(context.Background(), Spec{
					Algorithm: alg, K: 2, T: 0.08, SkipAssessment: true,
				})
				if err != nil {
					t.Fatalf("%s workers=%d %v: %v", fix.name, workers, alg, err)
				}
				w, ok := pinned[fmt.Sprintf("%s/%v/2/0.08", fix.name, alg)]
				if !ok {
					t.Fatalf("fixture missing cell %s/%v k=2 t=0.08", fix.name, alg)
				}
				if hashPartition(res) != w.Partition {
					t.Errorf("%s workers=%d %v: partition diverges from golden fixture",
						fix.name, workers, alg)
				}
			}
		}
	}
}
