// This file exercises the goroutine fan-out of the Matrix distance scans:
// the row count exceeds parallelScanMin, so Farthest/KNearest run chunked,
// and the result must still be identical to the serial naive reference.
package micro

import (
	"context"
	"math/rand"
	"testing"
)

func TestParallelScansMatchReferenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 9000
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	clusters, err := MDAV(context.Background(), NewMatrix(pts), 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPartition(clusters, n, 500); err != nil {
		t.Fatal(err)
	}
	// reference comparison on the large parallel path
	want, err := referenceMDAV(pts, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(clusters) {
		t.Fatalf("cluster counts diverge: %d vs %d", len(clusters), len(want))
	}
	for i := range want {
		if len(want[i].Rows) != len(clusters[i].Rows) {
			t.Fatalf("cluster %d sizes diverge", i)
		}
		for j := range want[i].Rows {
			if want[i].Rows[j] != clusters[i].Rows[j] {
				t.Fatalf("cluster %d row %d: %d vs %d", i, j, clusters[i].Rows[j], want[i].Rows[j])
			}
		}
	}
}
