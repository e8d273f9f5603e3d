package micro

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randomPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func TestMDAVErrors(t *testing.T) {
	if _, err := MDAV(context.Background(), NewMatrix(nil), 2); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := MDAV(context.Background(), NewMatrix(randomPoints(5, 2, 1)), 0); err == nil {
		t.Error("k = 0 should fail")
	}
}

func TestMDAVPartitionAndSizeBounds(t *testing.T) {
	for _, n := range []int{1, 2, 5, 7, 10, 33, 100} {
		for _, k := range []int{1, 2, 3, 5} {
			pts := randomPoints(n, 3, int64(n*100+k))
			clusters, err := MDAV(context.Background(), NewMatrix(pts), k)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			if err := CheckPartition(clusters, n, min(k, n)); err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			// MDAV's fixed-size guarantee: every cluster has between k and
			// 2k-1 records when n >= k; a lone smaller cluster only if n<k.
			if n >= k {
				for ci, c := range clusters {
					if c.Size() < k || c.Size() > 2*k-1 {
						t.Errorf("n=%d k=%d: cluster %d has size %d outside [k, 2k-1]",
							n, k, ci, c.Size())
					}
				}
			}
		}
	}
}

func TestMDAVSizeBoundsProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8, seed int64) bool {
		n := 1 + int(nRaw)%120
		k := 1 + int(kRaw)%10
		pts := randomPoints(n, 2, seed)
		clusters, err := MDAV(context.Background(), NewMatrix(pts), k)
		if err != nil {
			return false
		}
		if err := CheckPartition(clusters, n, min(k, n)); err != nil {
			return false
		}
		if n < k {
			return len(clusters) == 1
		}
		for _, c := range clusters {
			if c.Size() < k || c.Size() > 2*k-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMDAVDeterministic(t *testing.T) {
	pts := randomPoints(50, 2, 4)
	a, err := MDAV(context.Background(), NewMatrix(pts), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MDAV(context.Background(), NewMatrix(pts), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("MDAV is not deterministic")
	}
}

func TestMDAVSmallerThan2K(t *testing.T) {
	pts := randomPoints(5, 2, 9)
	clusters, err := MDAV(context.Background(), NewMatrix(pts), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 || clusters[0].Size() != 5 {
		t.Errorf("n < 2k should give one cluster of n, got %v", clusters)
	}
}

func TestMDAVGroupsNeighbors(t *testing.T) {
	// Two well-separated point blobs of size 3 with k=3 must map to the two
	// blobs exactly.
	pts := [][]float64{
		{0, 0}, {0.01, 0}, {0, 0.01},
		{10, 10}, {10.01, 10}, {10, 10.01},
	}
	clusters, err := MDAV(context.Background(), NewMatrix(pts), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters", len(clusters))
	}
	for _, c := range clusters {
		low, high := 0, 0
		for _, r := range c.Rows {
			if r < 3 {
				low++
			} else {
				high++
			}
		}
		if low != 0 && high != 0 {
			t.Errorf("cluster mixes the two blobs: %v", c.Rows)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
