package dataset_test

import (
	"runtime"
	"testing"

	"repro/internal/synth"
)

// TestSubsetCopiesColumnsOnce pins that Subset allocates the kept rows'
// column values once, plus small change: on a 100,000-row patient table
// keeping nine rows in ten, it may allocate at most 1.25x the kept column
// bytes (a clone-then-filter copy takes about twice that).
func TestSubsetCopiesColumnsOnce(t *testing.T) {
	tbl := synth.PatientDischarge(100_000, synth.DefaultSeed)
	keep := make([]int, 0, tbl.Len())
	for r := 0; r < tbl.Len(); r++ {
		if r%10 != 3 {
			keep = append(keep, r)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sub, err := tbl.Subset(keep)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != len(keep) {
		t.Fatalf("subset has %d rows, want %d", sub.Len(), len(keep))
	}
	kept := uint64(len(keep) * tbl.Width() * 8)
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.25*float64(kept) {
		t.Fatalf("Subset allocated %d KiB for %d KiB of kept columns, want at most 1.25x",
			got>>10, kept>>10)
	}
}
