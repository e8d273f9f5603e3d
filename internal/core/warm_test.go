package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/synth"
)

// TestEngineDeleteMatchesCold pins the deletion-epoch contract: Delete
// followed by a cold Run is bit-identical to a fresh engine over the
// filtered table, for the paper's algorithms and a substrate-sharing
// baseline, on both numeric and categorical-confidential tables.
func TestEngineDeleteMatchesCold(t *testing.T) {
	tables := map[string]*dataset.Table{
		"patients": synth.PatientDischarge(600, synth.DefaultSeed),
		"cat":      catTable(t, 180),
	}
	// Duplicated and unordered ids are allowed.
	dead := []int{5, 17, 17, 44, 3, 101, 102, 103, 59}
	for name, tbl := range tables {
		eng, err := NewEngine(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Delete(dead...); err != nil {
			t.Fatalf("%s: delete: %v", name, err)
		}
		if eng.Epoch() != 1 || eng.Len() != tbl.Len()-8 {
			t.Fatalf("%s: epoch=%d len=%d after delete", name, eng.Epoch(), eng.Len())
		}
		keep := make([]int, 0, tbl.Len())
		drop := map[int]bool{}
		for _, r := range dead {
			drop[r] = true
		}
		for r := 0; r < tbl.Len(); r++ {
			if !drop[r] {
				keep = append(keep, r)
			}
		}
		filtered, err := tbl.Subset(keep)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{Merge, KAnonymityFirst, TClosenessFirst, SABREBaseline} {
			spec := Spec{Algorithm: alg, K: 3, T: 0.12, SkipAssessment: true}
			got, err := eng.Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s/%v: engine: %v", name, alg, err)
			}
			want, err := runFresh(filtered, spec)
			if err != nil {
				t.Fatalf("%s/%v: cold: %v", name, alg, err)
			}
			assertSameResult(t, name+"/"+alg.String(), got, want)
			if hashOutput(got.Anonymized) != hashOutput(want.Anonymized) {
				t.Fatalf("%s/%v: release differs from cold run over filtered table", name, alg)
			}
		}
	}
}

// TestEngineDeleteErrors pins the all-or-nothing contract of Delete.
func TestEngineDeleteErrors(t *testing.T) {
	tbl := synth.PatientDischarge(50, synth.DefaultSeed)
	eng, err := NewEngine(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(); err != nil {
		t.Fatalf("empty delete: %v", err)
	}
	if err := eng.Delete(50); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range delete: err = %v", err)
	}
	if err := eng.Delete(-1); err == nil {
		t.Fatal("negative row id accepted")
	}
	all := iota0(50)
	if err := eng.Delete(all...); err == nil {
		t.Fatal("deleting every record accepted")
	}
	if eng.Epoch() != 0 || eng.Len() != 50 {
		t.Fatalf("failed deletes changed state: epoch=%d len=%d", eng.Epoch(), eng.Len())
	}
	if _, err := eng.Run(context.Background(), Spec{Algorithm: TClosenessFirst, K: 2, T: 0.3, SkipAssessment: true}); err != nil {
		t.Fatalf("engine unusable after failed deletes: %v", err)
	}
}

// TestEngineWarmSameEpochIdentical: a warm re-run at the seed's own epoch
// has nothing to repair, so it must reproduce the seeding run's partition
// bit-for-bit (the merge finisher sees an already-t-close partition).
func TestEngineWarmSameEpochIdentical(t *testing.T) {
	tbl := synth.PatientDischarge(1200, synth.DefaultSeed)
	eng, err := NewEngine(tbl)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, alg := range []Algorithm{Merge, KAnonymityFirst, TClosenessFirst} {
		spec := Spec{Algorithm: alg, K: 3, T: 0.1, SkipAssessment: true, Warm: true}
		first, err := eng.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if first.Warm != nil {
			t.Fatalf("%v: first warm run should miss (cold fallback), got %+v", alg, first.Warm)
		}
		second, err := eng.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if second.Warm == nil {
			t.Fatalf("%v: second warm run should hit the seed cache", alg)
		}
		if second.Warm.SeedEpoch != 0 || second.Warm.Assigned != 0 || second.Warm.ScopeRows != 0 {
			t.Fatalf("%v: same-epoch warm stats should be all-zero, got %+v", alg, second.Warm)
		}
		if hashPartition(first) != hashPartition(second) {
			t.Fatalf("%v: same-epoch warm re-run diverged from its seed", alg)
		}
	}
}

// TestEngineWarmChainedEpochsUtility is the warm-start property test across
// chained append and delete epochs: after every epoch, a warm run of each
// paper algorithm must keep the full privacy guarantee (cover partition,
// k-anonymity at the effective k, MaxEMD <= t) and stay within a pinned
// utility bound of a cold run at the same epoch, while touching only a
// delta-sized repair frontier.
func TestEngineWarmChainedEpochsUtility(t *testing.T) {
	full := synth.PatientDischarge(1500, synth.DefaultSeed)
	base, err := full.Subset(iota0(1200))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	specs := []Spec{
		{Algorithm: Merge, K: 3, T: 0.1, SkipAssessment: true, Warm: true},
		{Algorithm: KAnonymityFirst, K: 2, T: 0.13, SkipAssessment: true, Warm: true},
		{Algorithm: TClosenessFirst, K: 2, T: 0.25, SkipAssessment: true, Warm: true},
	}
	// Seed every spec's cache at epoch 0.
	for _, spec := range specs {
		if _, err := eng.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	type step struct {
		name string
		do   func() error
	}
	next := 1200
	appendBatch := func(k int) func() error {
		return func() error {
			rows := appendRows(full, next, next+k)
			next += k
			return eng.Append(rows...)
		}
	}
	steps := []step{
		{"append-40", appendBatch(40)},
		{"delete-30", func() error { return eng.Delete(iota0(30)...) }},
		{"append-60", appendBatch(60)},
		{"delete-scattered", func() error {
			ids := make([]int, 0, 25)
			for i := 0; i < 25; i++ {
				ids = append(ids, (i*47)%eng.Len())
			}
			return eng.Delete(ids...)
		}},
		{"append-100", appendBatch(100)},
	}
	for si, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		n := eng.Len()
		for _, spec := range specs {
			warm, err := eng.Run(ctx, spec)
			if err != nil {
				t.Fatalf("%s/%v: warm: %v", s.name, spec.Algorithm, err)
			}
			if warm.Warm == nil {
				t.Fatalf("%s/%v: expected a warm hit", s.name, spec.Algorithm)
			}
			cold := spec
			cold.Warm = false
			want, err := eng.Run(ctx, cold)
			if err != nil {
				t.Fatalf("%s/%v: cold: %v", s.name, spec.Algorithm, err)
			}
			// Privacy is non-negotiable: warm runs keep the exact guarantee.
			minK := spec.K
			if warm.EffectiveK < minK {
				t.Fatalf("%s/%v: effective k %d below requested %d", s.name, spec.Algorithm, warm.EffectiveK, spec.K)
			}
			if err := micro.CheckPartition(warm.Clusters, n, minK); err != nil {
				t.Fatalf("%s/%v: warm partition invalid: %v", s.name, spec.Algorithm, err)
			}
			if warm.MaxEMD > spec.T {
				t.Fatalf("%s/%v: warm MaxEMD %v exceeds t=%v", s.name, spec.Algorithm, warm.MaxEMD, spec.T)
			}
			// Utility stays within the pinned bound of the cold run.
			if warm.SSE > 2*want.SSE+1e-9 {
				t.Fatalf("%s/%v: warm SSE %v vs cold %v exceeds 2x bound", s.name, spec.Algorithm, warm.SSE, want.SSE)
			}
			// The repair frontier is delta-sized, not table-sized.
			if warm.Warm.ScopeRows > n/2 {
				t.Fatalf("%s/%v: repair scope %d of %d rows — not local", s.name, spec.Algorithm, warm.Warm.ScopeRows, n)
			}
			_ = si
		}
	}
}

// TestEngineDeleteRacesCancelledRun overlaps Delete with an in-flight run
// that gets cancelled mid-partition: the run keeps its snapshot (nil or
// ctx.Err()), the deletes land, and epoch/len/substrate stay consistent for
// a follow-up run. CI runs this under -race; it is the race probe of the
// deletion epoch-swap path.
func TestEngineDeleteRacesCancelledRun(t *testing.T) {
	tbl := synth.PatientDischarge(4000, synth.DefaultSeed)
	eng, err := NewEngine(tbl)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, runErr = eng.Run(ctx, Spec{Algorithm: KAnonymityFirst, K: 2, T: 0.02, SkipAssessment: true})
	}()
	time.Sleep(10 * time.Millisecond)
	var delErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5 && delErr == nil; i++ {
			delErr = eng.Delete(0, 1, 2)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	wg.Wait()
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want nil or context.Canceled", runErr)
	}
	if delErr != nil {
		t.Fatalf("delete racing cancelled run failed: %v", delErr)
	}
	if eng.Epoch() != 5 || eng.Len() != 3985 {
		t.Fatalf("delete state: epoch=%d len=%d, want 5/3985", eng.Epoch(), eng.Len())
	}
	if eng.Table().Len() != 3985 {
		t.Fatalf("substrate table length %d, want 3985", eng.Table().Len())
	}
	if _, err := eng.Run(context.Background(), Spec{Algorithm: TClosenessFirst, K: 3, T: 0.3, SkipAssessment: true}); err != nil {
		t.Fatalf("engine unusable after delete/cancel race: %v", err)
	}
}

// TestWarmAppendFullSizeSpeedup is the acceptance pin of the tentpole: on
// the full-size patient-discharge table, a 1%-append warm re-run of
// KAnonymityFirst completes at least 10x faster than a cold re-run at the
// same epoch, with SSE within 25% of the cold result and the t-closeness
// guarantee intact.
func TestWarmAppendFullSizeSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size timing test")
	}
	const n = synth.PatientDischargeSize // 23,435
	const delta = n / 100                // 1% append
	full := synth.PatientDischarge(n, synth.DefaultSeed)
	base, err := full.Subset(iota0(n - delta))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := Spec{Algorithm: KAnonymityFirst, K: 2, T: 0.13, SkipAssessment: true, Warm: true}
	if _, err := eng.Run(ctx, spec); err != nil { // seeds the warm cache
		t.Fatal(err)
	}
	if err := eng.Append(appendRows(full, n-delta, n)...); err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Warm == nil || warm.Warm.Assigned != delta {
		t.Fatalf("warm run stats = %+v, want a hit assigning %d rows", warm.Warm, delta)
	}
	coldSpec := spec
	coldSpec.Warm = false
	cold, err := eng.Run(ctx, coldSpec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cold %v, warm %v (%.1fx), scope %d/%d rows, stats %+v, merges %d swaps %d, SSE cold %.6f warm %.6f, MaxEMD cold %.4f warm %.4f",
		cold.Elapsed, warm.Elapsed, float64(cold.Elapsed)/float64(warm.Elapsed),
		warm.Warm.ScopeRows, n, warm.Warm, warm.Merges, warm.Swaps,
		cold.SSE, warm.SSE, cold.MaxEMD, warm.MaxEMD)
	if warm.MaxEMD > spec.T {
		t.Fatalf("warm MaxEMD %v exceeds t=%v", warm.MaxEMD, spec.T)
	}
	if err := micro.CheckPartition(warm.Clusters, n, spec.K); err != nil {
		t.Fatalf("warm partition invalid: %v", err)
	}
	if warm.SSE > 1.25*cold.SSE {
		t.Fatalf("warm SSE %v beyond 1.25x cold %v", warm.SSE, cold.SSE)
	}
	if cold.Elapsed < 10*warm.Elapsed {
		t.Fatalf("warm re-run %v not 10x under cold %v", warm.Elapsed, cold.Elapsed)
	}
}
