package micro

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// kdRef is the linear-scan oracle for a KDTree: the same candidate rows in
// the same build order, with deletions applied, scanned naively with ties
// broken toward the earliest surviving position of the build order.
type kdRef struct {
	pts  [][]float64
	rows []int // alive rows in build order
}

func (r *kdRef) delete(row int) {
	for i, x := range r.rows {
		if x == row {
			r.rows = append(r.rows[:i], r.rows[i+1:]...)
			return
		}
	}
}

func (r *kdRef) nearest(p []float64) int {
	best, bestD := -1, 0.0
	for _, x := range r.rows {
		if d := Dist2(r.pts[x], p); best == -1 || d < bestD {
			best, bestD = x, d
		}
	}
	return best
}

func (r *kdRef) farthest(p []float64) int {
	best, bestD := -1, -1.0
	for _, x := range r.rows {
		if d := Dist2(r.pts[x], p); d > bestD {
			best, bestD = x, d
		}
	}
	return best
}

// kNearest returns the k alive rows sorted by (distance, build position).
func (r *kdRef) kNearest(p []float64, k int) []int {
	type dr struct {
		d   float64
		pos int
	}
	ds := make([]dr, len(r.rows))
	for i, x := range r.rows {
		ds[i] = dr{d: Dist2(r.pts[x], p), pos: i}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].d != ds[j].d {
			return ds[i].d < ds[j].d
		}
		return ds[i].pos < ds[j].pos
	})
	if k > len(ds) {
		k = len(ds)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = r.rows[ds[i].pos]
	}
	return out
}

// kdTrialPoints generates random point sets; every third trial uses a tiny
// value grid, forcing many exactly-duplicated points and exact distance
// ties — the adversarial case for branch-and-bound tie handling.
func kdTrialPoints(rng *rand.Rand, trial int) ([][]float64, int) {
	n := 20 + rng.Intn(400)
	dim := 1 + rng.Intn(7)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			if trial%3 == 0 {
				pts[i][j] = float64(rng.Intn(3))
			} else {
				pts[i][j] = rng.Float64()
			}
		}
	}
	return pts, n
}

// patientShapedPoints mimics the normalized Patient Discharge QI cube:
// seven dimensions, two of them binary and two on an 8-level grid beside
// continuous ones, so distance ties and coinciding points are common.
func patientShapedPoints(rng *rand.Rand) ([][]float64, int) {
	n := 50 + rng.Intn(400)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{
			rng.Float64(),
			float64(rng.Intn(2)),
			float64(rng.Intn(8)) / 7,
			rng.Float64(),
			float64(rng.Intn(8)) / 7,
			float64(rng.Intn(2)),
			rng.Float64(),
		}
	}
	return pts, n
}

// firstAliveFar returns the alive row at the head of the tree's Farthest
// order: the alive row farthest from the pivot.
func firstAliveFar(tree *KDTree) int {
	for _, pos := range tree.far[tree.farHead:] {
		if tree.alive[pos] {
			return int(tree.items[pos])
		}
	}
	return -1
}

// TestKDTreeMatchesLinearReference pins every KDTree query — including
// after interleaved deletions — to the linear-scan oracle, on random and
// adversarially duplicated point sets at dimensions 1-7 and on
// patient-shaped 7-D sets, with both ascending and permuted build orders
// (permuted orders exercise the rank-based tie-breaking that the
// confidential-ranking subsets of Algorithm 3 and SABRE rely on). Queries
// sit on a candidate row, inside the cloud, far outside it, and exactly at
// the tree's pivot. Every other trial retires rows farthest-from-pivot
// first, as MDAV does, which leaves a dead prefix in the Farthest order and
// drives it to compaction; the test checks that both happened.
func TestKDTreeMatchesLinearReference(t *testing.T) {
	if testing.Short() {
		t.Skip("kd-tree vs linear reference: slow property test")
	}
	rng := rand.New(rand.NewSource(20160314))
	deadPrefix, compactions := 0, 0
	for trial := 0; trial < 160; trial++ {
		var pts [][]float64
		var n int
		if trial < 120 {
			pts, n = kdTrialPoints(rng, trial)
		} else {
			pts, n = patientShapedPoints(rng)
		}
		rows := rng.Perm(n)[:1+rng.Intn(n)]
		if trial%2 == 0 {
			sort.Ints(rows)
		}
		m := NewMatrix(pts)
		tree := NewKDTree(m, rows)
		ref := &kdRef{pts: pts, rows: append([]int(nil), rows...)}
		for round := 0; tree.Len() > 0; round++ {
			for q := 0; q < 5; q++ {
				p := make([]float64, m.Dim())
				switch {
				case q == 0:
					copy(p, pts[ref.rows[rng.Intn(len(ref.rows))]])
				case q == 3:
					for j := range p {
						p[j] = (rng.Float64() - 0.5) * 200
					}
				case q == 4:
					copy(p, tree.pivot)
				default:
					for j := range p {
						p[j] = rng.Float64() * 3
					}
				}
				if got, want := tree.Nearest(p), ref.nearest(p); got != want {
					t.Fatalf("trial %d round %d q %d: Nearest=%d want %d", trial, round, q, got, want)
				}
				farLen := len(tree.far)
				if got, want := tree.Farthest(p), ref.farthest(p); got != want {
					t.Fatalf("trial %d round %d q %d: Farthest=%d want %d", trial, round, q, got, want)
				}
				if len(tree.far) < farLen {
					compactions++
				}
				k := 1 + rng.Intn(tree.Len()+2)
				if got, want := tree.KNearest(p, k), ref.kNearest(p, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d round %d q %d k=%d: KNearest=%v want %v", trial, round, q, k, got, want)
				}
			}
			if tree.farHead > 0 {
				deadPrefix++
			}
			// Delete a batch and re-verify on the shrunken set.
			del := 1 + rng.Intn(3)
			for i := 0; i < del && len(ref.rows) > 0; i++ {
				x := ref.rows[rng.Intn(len(ref.rows))]
				if trial%2 == 1 {
					x = firstAliveFar(tree)
				}
				tree.Delete(x)
				ref.delete(x)
			}
			if tree.Len() != len(ref.rows) {
				t.Fatalf("trial %d: Len=%d want %d", trial, tree.Len(), len(ref.rows))
			}
		}
	}
	if deadPrefix == 0 || compactions == 0 {
		t.Fatalf("Farthest order never skipped a dead prefix (%d) or compacted (%d)", deadPrefix, compactions)
	}
}

// TestMDAVIndexMatchesScan pins the indexed MDAV partition to the linear
// scan partition (and to the naive reference) on random and heavy-tie
// geometries: the crossover is forced in both directions and the outputs
// must be identical.
func TestMDAVIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		pts, n := kdTrialPoints(rng, trial)
		k := 1 + rng.Intn(6)
		scan, err := MDAV(context.Background(), tunedMatrix(pts, Tuning{IndexCrossover: 1 << 30}), k)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := MDAV(context.Background(), tunedMatrix(pts, Tuning{IndexCrossover: 1}), k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scan, indexed) {
			t.Fatalf("trial %d (n=%d k=%d): MDAV index vs scan partitions diverge", trial, n, k)
		}
		want, err := referenceMDAV(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(indexed, want) {
			t.Fatalf("trial %d (n=%d k=%d): indexed MDAV diverges from naive reference", trial, n, k)
		}
	}
}

// tunedMatrix returns pts as a Matrix with the given tuning.
func tunedMatrix(pts [][]float64, tun Tuning) *Matrix {
	m := NewMatrix(pts)
	m.SetTuning(tun)
	return m
}
