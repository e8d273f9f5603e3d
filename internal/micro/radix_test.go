package micro

import (
	"math/rand"
	"sort"
	"testing"
)

// TestRadixDrainIsolated pins the stable LSD radix sort of (distance, row)
// entries to a stable comparison sort on the distance alone, on
// heavy-tie keys, across both the 11-bit (small array) and 16-bit (large
// array) digit widths: equal distances must keep their input (row) order.
func TestRadixDrainIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		if trial == 0 {
			n = 1<<14 + 137 // force the 16-bit digit path
		}
		a := make([]DistEntry, n)
		for i := range a {
			a[i] = DistEntry{D: float64(rng.Intn(50)) * 0.25, Row: int32(i)}
		}
		want := append([]DistEntry(nil), a...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].D < want[j].D })
		var tmp []DistEntry
		var counts []int32
		got := RadixSortDist(a, &tmp, &counts)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d n=%d: mismatch at %d: got %v want %v", trial, n, i, got[i], want[i])
			}
		}
	}
}
