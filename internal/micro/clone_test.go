package micro

import (
	"math/rand"
	"reflect"
	"testing"
)

func randomMatrix(rng *rand.Rand, n, dim int) *Matrix {
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, dim)
		for j := range row {
			row[j] = float64(rng.Intn(40)) / 40 // coarse grid forces distance ties
		}
		pts[i] = row
	}
	return NewMatrix(pts)
}

// TestKDTreeCloneIndependence: deletions on a clone never leak into the
// master or sibling clones, and every clone's queries stay bit-identical to
// the linear scans over its own surviving candidate set — the package's
// determinism contract.
func TestKDTreeCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 300, 3)
	rows := make([]int, m.N())
	for i := range rows {
		rows[i] = i
	}
	master := NewKDTree(m, rows)
	c1, c2 := master.Clone(), master.Clone()
	scratch := make([]bool, m.N())
	alive1, alive2 := append([]int(nil), rows...), append([]int(nil), rows...)
	for round := 0; round < 25; round++ {
		// Delete disjoint random batches from each clone.
		del1 := []int{alive1[rng.Intn(len(alive1))]}
		c1.Delete(del1[0])
		alive1 = FilterRows(alive1, del1, scratch)
		del2 := []int{alive2[rng.Intn(len(alive2))]}
		c2.Delete(del2[0])
		alive2 = FilterRows(alive2, del2, scratch)

		q := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if got, want := c1.Nearest(q), m.Nearest(alive1, q); got != want {
			t.Fatalf("clone1 Nearest = %d, linear scan %d", got, want)
		}
		if got, want := c2.Farthest(q), m.Farthest(alive2, q); got != want {
			t.Fatalf("clone2 Farthest = %d, linear scan %d", got, want)
		}
		if got, want := c1.KNearest(q, 5), m.KNearest(alive1, q, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("clone1 KNearest = %v, linear scan %v", got, want)
		}
	}
	// The master saw none of it.
	if master.Len() != len(rows) {
		t.Fatalf("master Len = %d after clone deletions, want %d", master.Len(), len(rows))
	}
	q := []float64{0.3, 0.7, 0.1}
	if got, want := master.Nearest(q), m.Nearest(rows, q); got != want {
		t.Fatalf("master Nearest = %d, linear scan %d", got, want)
	}
}

// TestIndexCacheSharesOneBuild: Searchers over the full ascending row set
// of a cache-enabled matrix share one master (verified by behavior: both
// are indexed, and independent removals do not interfere), while subset
// searchers stay independent of the cache.
func TestIndexCacheSharesOneBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomMatrix(rng, 200, 2)
	m.SetTuning(Tuning{IndexCrossover: 16})
	m.EnableIndexCache()
	rows := make([]int, m.N())
	for i := range rows {
		rows[i] = i
	}
	s1 := m.NewSearcher(rows)
	s2 := m.NewSearcher(rows)
	if !s1.Indexed() || !s2.Indexed() {
		t.Fatal("full-set searchers should be indexed at this crossover")
	}
	scratch := make([]bool, m.N())
	alive1 := append([]int(nil), rows...)
	drop := []int{4, 9, 44}
	s1.Remove(drop)
	alive1 = FilterRows(alive1, drop, scratch)
	q := []float64{0.2, 0.8}
	if got, want := s1.Nearest(alive1, q), m.Nearest(alive1, q); got != want {
		t.Fatalf("s1 Nearest = %d, want %d", got, want)
	}
	// s2 must still see every row despite s1's removals.
	if got, want := s2.Nearest(rows, q), m.Nearest(rows, q); got != want {
		t.Fatalf("s2 Nearest = %d, want %d (leaked removals?)", got, want)
	}
}

// TestMatrixTuningDeterminism: per-matrix worker budgets change only the
// execution strategy; scan results stay bit-identical, and the tuned matrix
// ignores the deprecated globals.
func TestMatrixTuningDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := make([][]float64, 9000) // above parallelScanMin
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	serial := NewMatrix(pts)
	serial.SetTuning(Tuning{Workers: 1})
	rows := make([]int, len(pts))
	for i := range rows {
		rows[i] = i
	}
	q := []float64{0.5, 0.5}
	wantF, wantN := serial.Farthest(rows, q), serial.Nearest(rows, q)
	wantK := serial.KNearest(rows, q, 7)
	for _, workers := range []int{2, 3, 8} {
		m := NewMatrix(pts)
		m.SetTuning(Tuning{Workers: workers})
		if got := m.Farthest(rows, q); got != wantF {
			t.Fatalf("workers=%d: Farthest %d want %d", workers, got, wantF)
		}
		if got := m.Nearest(rows, q); got != wantN {
			t.Fatalf("workers=%d: Nearest %d want %d", workers, got, wantN)
		}
		if got := m.KNearest(rows, q, 7); !reflect.DeepEqual(got, wantK) {
			t.Fatalf("workers=%d: KNearest %v want %v", workers, got, wantK)
		}
	}
}
