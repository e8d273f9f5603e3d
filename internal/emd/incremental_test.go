package emd

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// referenceEMDSwap is the naive O(m) floating-point evaluation the package
// shipped before the incremental-geometry engine: a full cumulative walk
// over every bin with virtual removal/addition. The property tests below pin
// the optimized engine against it.
func referenceEMDSwap(h *Hist, outBin, inBin int) float64 {
	s := h.space
	if s.m < 2 {
		return 0
	}
	size := h.size
	if outBin >= 0 {
		size--
	}
	if inBin >= 0 {
		size++
	}
	if size <= 0 {
		return 0
	}
	inv := 1.0 / float64(size)
	if s.nominal {
		var total float64
		for b := 0; b < s.m; b++ {
			c := h.count(b)
			if b == outBin {
				c--
			}
			if b == inBin {
				c++
			}
			d := float64(c)*inv - s.q[b]
			if d < 0 {
				d = -d
			}
			total += d
		}
		return total / 2
	}
	var cum, total float64
	for b := 0; b < s.m-1; b++ {
		c := h.count(b)
		if b == outBin {
			c--
		}
		if b == inBin {
			c++
		}
		cum += float64(c)*inv - s.q[b]
		if cum >= 0 {
			total += cum
		} else {
			total -= cum
		}
	}
	return total / float64(s.m-1)
}

func referenceEMD(h *Hist) float64 { return referenceEMDSwap(h, -1, -1) }

// randomSpace builds an ordered or nominal space whose value domain has a
// controlled number of distinct bins, so both dense (occ ≈ m) and sparse
// (occ ≪ m) regimes are exercised.
func randomSpace(t *testing.T, rng *rand.Rand, n int, nominal bool) *Space {
	t.Helper()
	domain := 1 + rng.Intn(2*n)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Floor(rng.Float64()*float64(domain)) / 3
	}
	var s *Space
	var err error
	if nominal {
		s, err = NewNominalSpace(vals)
	} else {
		s, err = NewSpace(vals)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestIncrementalEMDSwapMatchesReference drives randomized histograms
// through long sequences of virtual swap queries and committed mutations,
// checking every incremental result against the naive full recomputation.
func TestIncrementalEMDSwapMatchesReference(t *testing.T) {
	for _, nominal := range []bool{false, true} {
		rng := rand.New(rand.NewSource(20160314))
		for trial := 0; trial < 60; trial++ {
			n := 8 + rng.Intn(120)
			s := randomSpace(t, rng, n, nominal)
			size := 1 + rng.Intn(n-1)
			rows := rng.Perm(n)[:size]
			h := s.HistOf(rows)
			for step := 0; step < 80; step++ {
				out := rows[rng.Intn(len(rows))]
				in := rng.Intn(n)
				var got float64
				switch step % 4 {
				case 0: // same-size swap (the Algorithm 2 inner-loop query)
					got = h.EMDSwap(out, in)
				case 1: // add-only
					got = h.EMDSwap(-1, in)
					out = -1
				case 2: // remove-only
					got = h.EMDSwap(out, -1)
					in = -1
				default: // full EMD
					got = h.EMD()
					out, in = -1, -1
				}
				want := referenceEMDSwap(h, binOrMinus(s, out), binOrMinus(s, in))
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("nominal=%v trial %d step %d: incremental %v, reference %v",
						nominal, trial, step, got, want)
				}
				// Commit a mutation so the cached geometry is exercised
				// across states: mostly swaps, sometimes add/remove.
				switch {
				case step%7 == 3:
					add := rng.Intn(n)
					h.Add(add)
					rows = append(rows, add)
				case step%7 == 5 && len(rows) > 1:
					i := rng.Intn(len(rows))
					h.Remove(rows[i])
					rows = append(rows[:i], rows[i+1:]...)
				default:
					i := rng.Intn(len(rows))
					in := rng.Intn(n)
					h.Swap(rows[i], in)
					rows[i] = in
				}
			}
		}
	}
}

func binOrMinus(s *Space, rec int) int {
	if rec < 0 {
		return -1
	}
	return s.Bin(rec)
}

// TestIncrementalSwapExactlyMatchesMutation checks bit-for-bit equality
// between the virtual same-size swap and the EMD measured after actually
// mutating a fresh histogram: both paths run the same exact integer
// arithmetic, so the caller's tie-breaking comparisons are unaffected by
// which path produced a value.
func TestIncrementalSwapExactlyMatchesMutation(t *testing.T) {
	for _, nominal := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			n := 4 + rng.Intn(60)
			s := randomSpace(t, rng, n, nominal)
			size := 1 + rng.Intn(n-1)
			rows := rng.Perm(n)[:size]
			h := s.HistOf(rows)
			out := rows[rng.Intn(size)]
			in := rng.Intn(n)
			predicted := h.EMDSwap(out, in)
			fresh := s.HistOf(rows)
			fresh.Swap(out, in)
			if got := fresh.EMD(); got != predicted {
				t.Fatalf("nominal=%v trial %d: EMDSwap=%v but post-mutation EMD=%v (must be identical)",
					nominal, trial, predicted, got)
			}
		}
	}
}

// TestSwapEquivalentToRemoveAdd pins Hist.Swap to Remove+Add semantics.
func TestSwapEquivalentToRemoveAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(80)
		s := randomSpace(t, rng, n, trial%2 == 0)
		size := 1 + rng.Intn(n-1)
		rows := rng.Perm(n)[:size]
		a := s.HistOf(rows)
		b := s.HistOf(rows)
		out := rows[rng.Intn(size)]
		in := rng.Intn(n)
		a.Swap(out, in)
		b.Remove(out)
		b.Add(in)
		if a.EMD() != b.EMD() || a.Size() != b.Size() {
			t.Fatalf("trial %d: Swap diverges from Remove+Add: %v/%d vs %v/%d",
				trial, a.EMD(), a.Size(), b.EMD(), b.Size())
		}
	}
}

// TestHistOfPathsAgree checks that the sort-and-count HistOf builds the
// same histogram as repeated Add, bin for bin, at every size from 1 to n.
func TestHistOfPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 400
	for _, nominal := range []bool{false, true} {
		s := randomSpace(t, rng, n, nominal)
		perm := rng.Perm(n)
		for size := 1; size <= n; size++ {
			rows := perm[:size]
			batch := s.HistOf(rows)
			incr := s.NewHist()
			for _, r := range rows {
				incr.Add(r)
			}
			if !slices.Equal(batch.occ, incr.occ) || batch.Size() != incr.Size() {
				t.Fatalf("nominal=%v size %d: batch bins %v/%d vs incremental %v/%d",
					nominal, size, batch.occ, batch.Size(), incr.occ, incr.Size())
			}
			if batch.EMD() != incr.EMD() || batch.AbsDev() != incr.AbsDev() {
				t.Fatalf("nominal=%v size %d: batch %v vs incremental %v",
					nominal, size, batch.EMD(), incr.EMD())
			}
		}
	}
}

// TestHistCostTracksOccupancy pins that a histogram's memory tracks the
// records it holds, not the number of bins: HistOf over 5 records, and
// NewHist plus 5 Adds, on a 100,000-bin space allocate under 4 KiB, where
// one count per bin would take 800 KB.
func TestHistCostTracksOccupancy(t *testing.T) {
	const m = 100_000
	vals := make([]float64, m)
	for i := range vals {
		vals[i] = float64(i)
	}
	s, err := NewSpace(vals)
	if err != nil {
		t.Fatal(err)
	}
	recs := []int{7, 99_999, 50_000, 7, 123}
	var sink *Hist
	builds := map[string]func() *Hist{
		"HistOf": func() *Hist { return s.HistOf(recs) },
		"NewHist+Add": func() *Hist {
			h := s.NewHist()
			for _, r := range recs {
				h.Add(r)
			}
			return h
		},
	}
	for name, build := range builds {
		const reps = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			sink = build()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / reps; per >= 4096 {
			t.Errorf("%s over 5 records on %d bins allocates %d B per histogram, want < 4096", name, m, per)
		}
		if sink.Size() != len(recs) || sink.EMD() != s.EMDOf(recs) {
			t.Fatalf("%s built a wrong histogram", name)
		}
	}
}
