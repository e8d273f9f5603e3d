package par

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestCellsCoversAllItems(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		n := 137
		hits := make([]int32, n)
		Cells(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestChunksPartition(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]int32, n)
			Chunks(n, workers, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestPoolRunsEveryTaskAndReuses(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers)
		if p.Size() < 1 {
			t.Fatalf("pool size %d", p.Size())
		}
		for round := 0; round < 50; round++ {
			n := 1 + round%7
			hits := make([]int32, n)
			p.Run(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d round=%d: task %d ran %d times", workers, round, i, h)
				}
			}
		}
		p.Close()
	}
}

// TestArgminMatchesSerialScan pins the order-stable contract: at any worker
// count the winner equals the serial left-to-right first-strict-improvement
// scan, including on adversarial all-ties inputs.
func TestArgminMatchesSerialScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sweep := []int{1, 2, 3, 8, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(5)) // heavy ties
			if rng.Intn(4) == 0 {
				vals[i] = math.Inf(1) // skipped
			}
		}
		refF := -1
		for i, v := range vals {
			if !math.IsInf(v, 1) && (refF < 0 || v < vals[refF]) {
				refF = i
			}
		}
		for _, w := range sweep {
			if got := ArgminFloat64(n, w, func(i int) float64 { return vals[i] }); got != refF {
				t.Fatalf("trial %d workers=%d: ArgminFloat64 = %d, serial = %d", trial, w, got, refF)
			}
		}
	}
}

func TestArgminAllSkipped(t *testing.T) {
	for _, w := range []int{1, 4} {
		// All-+Inf inputs follow the serial first-strict-improvement scan:
		// the first index is accepted (best < 0) and never displaced.
		if got := ArgminFloat64(10, w, func(int) float64 { return math.Inf(1) }); got != 0 {
			t.Fatalf("workers=%d: ArgminFloat64 all +Inf = %d, want 0", w, got)
		}
		if got := ArgminFloat64(0, w, func(int) float64 { return 0 }); got != -1 {
			t.Fatalf("workers=%d: ArgminFloat64 n=0 = %d, want -1", w, got)
		}
	}
}
