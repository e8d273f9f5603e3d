package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/micro"
	"repro/internal/store"
	"repro/internal/synth"
)

// remapEpochs returns the epochs of the deletion maps the engine's current
// state holds, oldest first.
func remapEpochs(e *Engine) []int {
	var out []int
	for _, rm := range e.snapshot().remaps {
		out = append(out, rm.epoch)
	}
	return out
}

// TestEngineKeepsOnlyReplayableRemaps pins what the engine retains of its
// row-id history: deletion maps only, and only those the oldest cached warm
// seed can still replay.
func TestEngineKeepsOnlyReplayableRemaps(t *testing.T) {
	ctx := context.Background()
	spec := Spec{Algorithm: TClosenessFirst, K: 3, T: 0.2, SkipAssessment: true, Warm: true}

	t.Run("no seed", func(t *testing.T) {
		eng, err := NewEngine(synth.PatientDischarge(400, synth.DefaultSeed))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := eng.Delete(i); err != nil {
				t.Fatal(err)
			}
		}
		if got := remapEpochs(eng); len(got) != 0 {
			t.Fatalf("no seed cached, but the engine holds maps of epochs %v", got)
		}
		if st := eng.snapshot(); st.remapFrom != 20 {
			t.Fatalf("remaps start at epoch %d, want 20", st.remapFrom)
		}
	})

	t.Run("one seed", func(t *testing.T) {
		full := synth.PatientDischarge(420, synth.DefaultSeed)
		base, err := full.Subset(iota0(400))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(base)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(ctx, spec); err != nil { // seeds the cache at epoch 0
			t.Fatal(err)
		}
		steps := []func() error{
			func() error { return eng.Delete(1, 2) },                          // epoch 0 -> 1
			func() error { return eng.Append(appendRows(full, 400, 410)...) }, // 1 -> 2
			func() error { return eng.Delete(7) },                             // 2 -> 3
		}
		for _, step := range steps {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		if got := remapEpochs(eng); len(got) != 2 || got[0] != 0 || got[1] != 2 {
			t.Fatalf("seed at epoch 0: maps of epochs %v, want [0 2]", got)
		}
		res, err := eng.Run(ctx, spec) // replays both, reseeds at epoch 3
		if err != nil {
			t.Fatal(err)
		}
		if res.Warm == nil || res.Warm.SeedEpoch != 0 {
			t.Fatalf("warm stats %+v, want a run seeded at epoch 0", res.Warm)
		}
		if err := eng.Append(appendRows(full, 410, 420)...); err != nil { // 3 -> 4
			t.Fatal(err)
		}
		if err := eng.Delete(0, 5); err != nil { // 4 -> 5
			t.Fatal(err)
		}
		if got := remapEpochs(eng); len(got) != 1 || got[0] != 4 {
			t.Fatalf("seed at epoch 3: maps of epochs %v, want [4]", got)
		}
		res, err = eng.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Warm == nil || res.Warm.SeedEpoch != 3 {
			t.Fatalf("warm stats %+v, want a run seeded at epoch 3", res.Warm)
		}
	})

	t.Run("opened", func(t *testing.T) {
		b, err := store.NewFileBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := Create(b, "ds", synth.PatientDischarge(200, synth.DefaultSeed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := eng.Delete(i); err != nil {
				t.Fatal(err)
			}
		}
		if got := remapEpochs(eng); len(got) != 3 {
			t.Fatalf("writing engine holds maps of epochs %v, want three", got)
		}
		opened, err := Open(b, "ds")
		if err != nil {
			t.Fatal(err)
		}
		if got := remapEpochs(opened); len(got) != 0 {
			t.Fatalf("freshly opened engine holds maps of epochs %v", got)
		}
		if st := opened.snapshot(); st.epoch != 3 || st.remapFrom != 3 {
			t.Fatalf("opened at epoch %d with remaps from %d, want 3 and 3", st.epoch, st.remapFrom)
		}
	})
}

// TestEngineStaleSeedRunsCold pins the one case the pruning costs a warm
// hit: a run over a stale snapshot that stores its seed after a deletion
// dropped the map the seed would need. The next warm run must not replay
// the seed onto the wrong row ids; it runs cold, with k and t held.
func TestEngineStaleSeedRunsCold(t *testing.T) {
	ctx := context.Background()
	spec := Spec{Algorithm: KAnonymityFirst, K: 3, T: 0.15, Warm: true}
	eng, err := NewEngine(synth.PatientDischarge(500, synth.DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	stale := eng.snapshot()
	cold := spec
	cold.Warm = false
	res, err := eng.Run(ctx, cold)
	if err != nil {
		t.Fatal(err)
	}
	// No seed is cached, so this deletion's map is dropped at once.
	if err := eng.Delete(0, 1, 2, 50, 51); err != nil {
		t.Fatal(err)
	}
	// The stale run finishes now and caches its partition at epoch 0, as
	// Run does after a warm-eligible run over that snapshot.
	eng.storeWarm(spec, stale, res.Clusters, res.EffectiveK)

	got, err := eng.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Warm != nil {
		t.Fatalf("seed older than the kept maps ran warm: %+v", got.Warm)
	}
	if err := micro.CheckPartition(got.Clusters, eng.Len(), spec.K); err != nil {
		t.Fatalf("cold fallback partition: %v", err)
	}
	if got.Privacy.KAnonymity < spec.K || got.Privacy.TCloseness > spec.T {
		t.Fatalf("cold fallback privacy %+v misses k=%d, t=%v", got.Privacy, spec.K, spec.T)
	}
	// The fallback reseeded the cache at the current epoch.
	again, err := eng.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Warm == nil || again.Warm.SeedEpoch != 1 {
		t.Fatalf("warm stats %+v after the fallback, want a run seeded at epoch 1", again.Warm)
	}
}

// TestEngineWarmRunsRaceEpochs overlaps warm runs with deletes and appends,
// so seeds are stored by runs over stale snapshots while concurrent epochs
// prune the maps: no run may carry a seed onto the wrong row ids, and every
// release keeps k and t. CI's race leg runs it.
func TestEngineWarmRunsRaceEpochs(t *testing.T) {
	full := synth.PatientDischarge(660, synth.DefaultSeed)
	base, err := full.Subset(iota0(600))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	specs := []Spec{
		{Algorithm: TClosenessFirst, K: 3, T: 0.2, Warm: true},
		{Algorithm: KAnonymityFirst, K: 3, T: 0.15, Warm: true},
	}
	var wg sync.WaitGroup
	for _, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				res, err := eng.Run(ctx, spec)
				if err != nil {
					t.Errorf("%v run %d: %v", spec.Algorithm, i, err)
					return
				}
				if p := res.Privacy; p.KAnonymity < spec.K || p.TCloseness > spec.T {
					t.Errorf("%v run %d: privacy %+v misses k=%d, t=%v", spec.Algorithm, i, p, spec.K, spec.T)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := 600
		for i := 0; i < 12; i++ {
			var err error
			if i%2 == 0 {
				err = eng.Delete(i, 3*i+1)
			} else {
				err = eng.Append(appendRows(full, next, next+10)...)
				next += 10
			}
			if err != nil {
				t.Errorf("epoch %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
}
