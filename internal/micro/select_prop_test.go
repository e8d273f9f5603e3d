package micro

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referenceFarthest and referenceNearest are the retired [][]float64 linear
// scans, kept here as the naive oracles the optimized paths are pinned to.
func referenceFarthest(points [][]float64, rows []int, p []float64) int {
	best, bestD := -1, -1.0
	for _, r := range rows {
		if d := Dist2(points[r], p); d > bestD {
			best, bestD = r, d
		}
	}
	return best
}

func referenceNearest(points [][]float64, rows []int, p []float64) int {
	best, bestD := -1, -1.0
	for _, r := range rows {
		if d := Dist2(points[r], p); best == -1 || d < bestD {
			best, bestD = r, d
		}
	}
	return best
}

// referenceKNearest is the full-sort implementation KNearest shipped with
// before partial selection; the property tests pin the optimized selection
// paths to it, including tie-breaking order.
func referenceKNearest(points [][]float64, rows []int, p []float64, k int) []int {
	type rd struct {
		row int
		d   float64
	}
	ds := make([]rd, len(rows))
	for i, r := range rows {
		ds[i] = rd{row: r, d: Dist2(points[r], p)}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].d != ds[j].d {
			return ds[i].d < ds[j].d
		}
		return ds[i].row < ds[j].row
	})
	if k > len(ds) {
		k = len(ds)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ds[i].row
	}
	return out
}

func tiePoints(rng *rand.Rand, n, dim int, ties bool) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			if ties {
				// Values from a tiny grid force many exactly-equal distances,
				// exercising the (distance, row) tie-breaking order.
				pts[i][j] = float64(rng.Intn(3))
			} else {
				pts[i][j] = rng.Float64()
			}
		}
	}
	return pts
}

// TestKNearestMatchesSortReference compares partial selection against the
// full sort over random geometries, including heavy-tie grids, for every k.
func TestKNearestMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20160314))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(120)
		dim := 1 + rng.Intn(4)
		pts := tiePoints(rng, n, dim, trial%2 == 0)
		rows := rng.Perm(n)[:1+rng.Intn(n)]
		sort.Ints(rows)
		p := pts[rng.Intn(n)]
		k := 1 + rng.Intn(n+2) // may exceed len(rows)
		want := referenceKNearest(pts, rows, p, k)
		m := NewMatrix(pts)
		if gotM := m.KNearest(rows, p, k); !reflect.DeepEqual(gotM, want) {
			t.Fatalf("trial %d (n=%d k=%d): Matrix.KNearest=%v want %v", trial, n, k, gotM, want)
		}
	}
}

// TestMatrixScansMatchReference compares the flat-matrix Farthest/Nearest
// scans against the [][]float64 reference implementations.
func TestMatrixScansMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		dim := 1 + rng.Intn(5)
		pts := tiePoints(rng, n, dim, trial%3 == 0)
		rows := rng.Perm(n)[:1+rng.Intn(n)]
		sort.Ints(rows)
		p := pts[rng.Intn(n)]
		m := NewMatrix(pts)
		if got, want := m.Farthest(rows, p), referenceFarthest(pts, rows, p); got != want {
			t.Fatalf("trial %d: Matrix.Farthest=%d want %d", trial, got, want)
		}
		if got, want := m.Nearest(rows, p), referenceNearest(pts, rows, p); got != want {
			t.Fatalf("trial %d: Matrix.Nearest=%d want %d", trial, got, want)
		}
	}
}

// referenceMDAV is the pre-optimization MDAV: fresh centroid rescan per
// round, full-sort KNearest, map-based removal. It is the behavioral
// reference for the incremental implementation.
func referenceMDAV(points [][]float64, k int) ([]Cluster, error) {
	n := len(points)
	if n == 0 {
		return nil, ErrEmpty
	}
	if k < 1 {
		return nil, ErrBadK
	}
	removeRows := func(remaining, drop []int) []int {
		dropSet := make(map[int]struct{}, len(drop))
		for _, r := range drop {
			dropSet[r] = struct{}{}
		}
		out := remaining[:0]
		for _, r := range remaining {
			if _, gone := dropSet[r]; !gone {
				out = append(out, r)
			}
		}
		return out
	}
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	var clusters []Cluster
	for len(remaining) >= 3*k {
		c := Centroid(points, remaining)
		xr := referenceFarthest(points, remaining, c)
		cluster1 := referenceKNearest(points, remaining, points[xr], k)
		remaining = removeRows(remaining, cluster1)
		xs := referenceFarthest(points, remaining, points[xr])
		cluster2 := referenceKNearest(points, remaining, points[xs], k)
		remaining = removeRows(remaining, cluster2)
		clusters = append(clusters, Cluster{Rows: cluster1}, Cluster{Rows: cluster2})
	}
	if len(remaining) >= 2*k {
		c := Centroid(points, remaining)
		xr := referenceFarthest(points, remaining, c)
		cluster1 := referenceKNearest(points, remaining, points[xr], k)
		remaining = removeRows(remaining, cluster1)
		clusters = append(clusters, Cluster{Rows: cluster1}, Cluster{Rows: remaining})
	} else if len(remaining) > 0 {
		clusters = append(clusters, Cluster{Rows: remaining})
	}
	return clusters, nil
}

// TestMDAVMatchesReference pins the incremental MDAV (running centroid,
// partial selection, flat matrix) to the naive implementation: identical
// partitions on randomized inputs. The running centroid accumulates
// floating-point error of a different shape than the fresh rescan, but on
// continuous random geometry the distance gaps dwarf it; the fixed seed
// keeps the check deterministic.
func TestMDAVMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20160314))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(200)
		dim := 1 + rng.Intn(4)
		pts := tiePoints(rng, n, dim, false)
		k := 1 + rng.Intn(8)
		got, err := MDAV(context.Background(), NewMatrix(pts), k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceMDAV(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d k=%d dim=%d): partitions diverge\n got %v\nwant %v",
				trial, n, k, dim, got, want)
		}
	}
}
