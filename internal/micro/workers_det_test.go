package micro

import (
	"math/rand"
	"reflect"
	"testing"
)

// Determinism across worker budgets, including the parallel kd build.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("scan worker sweep: slow property test")
	}
	rng := rand.New(rand.NewSource(5))
	n := 9000
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	var ref []Cluster
	for _, w := range []int{1, 2, 8} {
		got, err := MDAVMatrix(tunedMatrix(pts, Tuning{Workers: w}), 3)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
		} else if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: partition differs", w)
		}
	}
}
