package emd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSpaceEmpty(t *testing.T) {
	if _, err := NewSpace(nil); err == nil {
		t.Error("empty input should fail")
	}
}

func TestSpaceBasics(t *testing.T) {
	// Values 5,1,5,3 -> bins {1,3,5}, q = {1/4, 1/4, 2/4}.
	s, err := NewSpace([]float64{5, 1, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 4 || s.Bins() != 3 {
		t.Fatalf("n=%d m=%d", s.N(), s.Bins())
	}
	if s.Bin(0) != 2 || s.Bin(1) != 0 || s.Bin(2) != 2 || s.Bin(3) != 1 {
		t.Errorf("bins = %d %d %d %d", s.Bin(0), s.Bin(1), s.Bin(2), s.Bin(3))
	}
	if s.Value(0) != 1 || s.Value(1) != 3 || s.Value(2) != 5 {
		t.Error("bin values wrong")
	}
	if s.DatasetMass(2) != 0.5 {
		t.Errorf("q[2] = %v", s.DatasetMass(2))
	}
}

func TestEMDWholeDatasetIsZero(t *testing.T) {
	vals := []float64{9, 2, 7, 2, 5, 1}
	s, err := NewSpace(vals)
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3, 4, 5}
	if d := s.EMDOf(all); math.Abs(d) > 1e-12 {
		t.Errorf("EMD of whole data set = %v, want 0", d)
	}
}

func TestEMDHandComputed(t *testing.T) {
	// Data set: values 1..4, one record each. q = (1/4,1/4,1/4,1/4).
	// Cluster {record with value 1}: p = (1,0,0,0).
	// Cumulative p-q: 3/4, 1/2, 1/4, 0 -> sum 3/2, / (m-1)=3 -> 1/2.
	s, err := NewSpace([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.EMDOf([]int{0}); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("EMD({1}) = %v, want 0.5", d)
	}
	// Cluster {1,4}: p=(1/2,0,0,1/2). Cum: 1/4, 0, -1/4, 0 -> 1/2 / 3 = 1/6.
	if d := s.EMDOf([]int{0, 3}); math.Abs(d-1.0/6) > 1e-12 {
		t.Errorf("EMD({1,4}) = %v, want 1/6", d)
	}
	// Cluster {2,3}: p=(0,1/2,1/2,0). Cum: -1/4, 0, 1/4, 0 -> 1/2/3 = 1/6.
	if d := s.EMDOf([]int{1, 2}); math.Abs(d-1.0/6) > 1e-12 {
		t.Errorf("EMD({2,3}) = %v, want 1/6", d)
	}
}

func TestEMDSingleBinSpace(t *testing.T) {
	s, err := NewSpace([]float64{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.EMDOf([]int{0}); d != 0 {
		t.Errorf("EMD over single-bin space = %v, want 0", d)
	}
}

func TestEMDMatchesExplicitDistance(t *testing.T) {
	// Hist.EMD must agree with the independent closed-form Distance over
	// explicit distributions.
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = float64(rng.Intn(12))
	}
	s, err := NewSpace(vals)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		size := 1 + rng.Intn(20)
		rows := rng.Perm(60)[:size]
		p := make([]float64, s.Bins())
		for _, r := range rows {
			p[s.Bin(r)] += 1.0 / float64(size)
		}
		q := make([]float64, s.Bins())
		for b := range q {
			q[b] = s.DatasetMass(b)
		}
		want, err := Distance(p, q)
		if err != nil {
			t.Fatal(err)
		}
		got := s.EMDOf(rows)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: EMDOf = %v, Distance = %v", trial, got, want)
		}
	}
}

func TestEMDRange(t *testing.T) {
	// EMD with ordered distance is always within [0, 1/2]: moving all mass
	// from one extreme to spread costs at most the mean rank distance.
	f := func(raw []float64, pick []byte) bool {
		if len(raw) < 2 || len(pick) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) {
				return true
			}
		}
		s, err := NewSpace(raw)
		if err != nil {
			return false
		}
		rows := make([]int, 0, len(pick))
		for _, b := range pick {
			rows = append(rows, int(b)%len(raw))
		}
		d := s.EMDOf(rows)
		return d >= 0 && d <= 0.5+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistAddRemoveInverse(t *testing.T) {
	s, err := NewSpace([]float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	h := s.HistOf([]int{0, 2, 4})
	before := h.EMD()
	h.Add(5)
	h.Remove(5)
	if after := h.EMD(); math.Abs(after-before) > 1e-12 {
		t.Errorf("add+remove changed EMD: %v -> %v", before, after)
	}
	if h.Size() != 3 {
		t.Errorf("size = %d", h.Size())
	}
}

func TestHistRemoveEmptyPanics(t *testing.T) {
	s, _ := NewSpace([]float64{1, 2})
	h := s.NewHist()
	defer func() {
		if recover() == nil {
			t.Error("removing from empty histogram should panic")
		}
	}()
	h.Remove(0)
}

func TestEMDSwapMatchesMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = rng.Float64() * 10
	}
	s, err := NewSpace(vals)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		perm := rng.Perm(40)
		rows := perm[:5]
		out := rows[rng.Intn(5)]
		in := perm[5+rng.Intn(35)]
		h := s.HistOf(rows)
		predicted := h.EMDSwap(out, in)
		h.Remove(out)
		h.Add(in)
		actual := h.EMD()
		if math.Abs(predicted-actual) > 1e-12 {
			t.Fatalf("trial %d: EMDSwap = %v, post-mutation EMD = %v", trial, predicted, actual)
		}
	}
}

func TestEMDSwapAddOnlyAndRemoveOnly(t *testing.T) {
	s, err := NewSpace([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	h := s.HistOf([]int{0, 2})
	addOnly := h.EMDSwap(-1, 4)
	h2 := s.HistOf([]int{0, 2})
	h2.Add(4)
	if math.Abs(addOnly-h2.EMD()) > 1e-12 {
		t.Errorf("add-only swap: %v vs %v", addOnly, h2.EMD())
	}
	removeOnly := h.EMDSwap(0, -1)
	h3 := s.HistOf([]int{0, 2})
	h3.Remove(0)
	if math.Abs(removeOnly-h3.EMD()) > 1e-12 {
		t.Errorf("remove-only swap: %v vs %v", removeOnly, h3.EMD())
	}
}

func TestHistMerge(t *testing.T) {
	s, err := NewSpace([]float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	a := s.HistOf([]int{0, 1})
	b := s.HistOf([]int{4, 5})
	a.Merge(b)
	want := s.EMDOf([]int{0, 1, 4, 5})
	if math.Abs(a.EMD()-want) > 1e-12 {
		t.Errorf("merged EMD = %v, want %v", a.EMD(), want)
	}
	if a.Size() != 4 {
		t.Errorf("merged size = %d", a.Size())
	}
}

func TestHistMergeDifferentSpacesPanics(t *testing.T) {
	s1, _ := NewSpace([]float64{1, 2})
	s2, _ := NewSpace([]float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("merging across spaces should panic")
		}
	}()
	s1.NewHist().Merge(s2.NewHist())
}

func TestEmptyHistEMDZero(t *testing.T) {
	s, _ := NewSpace([]float64{1, 2, 3})
	if d := s.NewHist().EMD(); d != 0 {
		t.Errorf("empty histogram EMD = %v", d)
	}
}

func TestDistanceValidation(t *testing.T) {
	if _, err := Distance([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch should fail")
	}
	d, err := Distance([]float64{1}, []float64{1})
	if err != nil || d != 0 {
		t.Errorf("single-bin distance = %v, %v", d, err)
	}
}

func TestDistanceIdentity(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		p := make([]float64, len(raw))
		total := 0.0
		for i, v := range raw {
			p[i] = math.Abs(v)
			if math.IsNaN(p[i]) || math.IsInf(p[i], 0) {
				return true
			}
			total += p[i]
		}
		if total == 0 {
			return true
		}
		for i := range p {
			p[i] /= total
		}
		d, err := Distance(p, p)
		return err == nil && math.Abs(d) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEMDSubsetUnionBound checks a transport-theoretic sanity property: the
// EMD of a union of two equal-size clusters is at most the mean of their
// EMDs (mixing distributions cannot increase the distance beyond the
// mixture of distances; EMD is convex in its first argument).
func TestEMDSubsetUnionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	s, err := NewSpace(vals)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(50)
		a, b := perm[:10], perm[10:20]
		da, db := s.EMDOf(a), s.EMDOf(b)
		dab := s.EMDOf(append(append([]int{}, a...), b...))
		if dab > (da+db)/2+1e-9 {
			t.Fatalf("union EMD %v exceeds mean of parts (%v, %v)", dab, da, db)
		}
	}
}
