package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// Stream must replay the committed history — the snapshot chunk, then
// each epoch's chunk or tombstone, in commit order — and Load, which
// rebuilds the table from that replay, must reproduce the table and last
// epoch number the test maintains itself, across random epoch histories.
func TestStreamReplayProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		tbl := randomTable(rng)
		b := newBackend(t)
		name := fmt.Sprintf("ds-%d", trial)
		if err := Write(b, name, tbl); err != nil {
			t.Fatal(err)
		}
		wantEvents := []string{fmt.Sprintf("chunk %d", tbl.Len())}
		cur, _ := randomEpochs(t, rng, b, name, tbl, &wantEvents)

		var events []string
		beginRows, chunkRows := -1, 0
		epoch, err := b.Stream(name, StreamHandler{
			Begin: func(_ *dataset.Schema, rows int) error {
				beginRows = rows
				return nil
			},
			Chunk: func(ch ColumnChunk) error {
				events = append(events, fmt.Sprintf("chunk %d", ch.Rows))
				chunkRows += ch.Rows
				return nil
			},
			Tombstone: func(ids []int) error {
				events = append(events, fmt.Sprintf("tombstone %v", ids))
				return nil
			},
		})
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if epoch != 4 {
			t.Fatalf("stream: last epoch %d, want 4", epoch)
		}
		if beginRows != chunkRows {
			t.Fatalf("Begin rows hint %d, chunks delivered %d records", beginRows, chunkRows)
		}
		if fmt.Sprint(events) != fmt.Sprint(wantEvents) {
			t.Fatalf("stream events %v, want %v", events, wantEvents)
		}

		got, epoch, err := Load(b, name)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		requireTablesIdentical(t, cur, got)
		if epoch != 4 {
			t.Fatalf("load: last epoch %d, want 4", epoch)
		}
	}
}

// withoutRows returns tbl minus the given rows, renumbered densely.
func withoutRows(t *testing.T, tbl *dataset.Table, ids []int) *dataset.Table {
	t.Helper()
	drop := make(map[int]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	keep := make([]int, 0, tbl.Len())
	for r := 0; r < tbl.Len(); r++ {
		if !drop[r] {
			keep = append(keep, r)
		}
	}
	sub, err := tbl.Subset(keep)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// A snapshot committed with no chunk at all, followed by a deletion epoch
// that removes nothing, must load as an empty table at epoch 1 — the
// tombstone replays against the table Begin made.
func TestLoadZeroChunkSnapshotThenDelete(t *testing.T) {
	schema := randomTable(rand.New(rand.NewSource(14))).Schema()
	b := newBackend(t)
	w, err := b.Create("ds", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteEpoch("ds", nil); err != nil {
		t.Fatalf("delete: %v", err)
	}
	tbl, epoch, err := Load(b, "ds")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if tbl == nil || tbl.Len() != 0 || !tbl.Schema().Equal(schema) {
		t.Fatalf("loaded %v, want an empty table over the schema", tbl)
	}
	if epoch != 1 {
		t.Fatalf("last epoch %d, want 1", epoch)
	}
	if tombs := tombstones(t, b, "ds"); len(tombs) != 1 || len(tombs[0]) != 0 {
		t.Fatalf("tombstones %v, want one empty deletion", tombs)
	}
}

// All-nil hooks are allowed: Stream then only returns the last epoch.
func TestStreamNilHooks(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(12)))
	b := newBackend(t)
	if err := Write(b, "ds", tbl); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteEpoch("ds", []int{0}); err != nil {
		t.Fatal(err)
	}
	epoch, err := b.Stream("ds", StreamHandler{})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("last epoch %d, want 1", epoch)
	}
	if _, err := b.Stream("missing", StreamHandler{}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset error %v", err)
	}
}

// A .tcs file whose name cannot be unescaped must be surfaced by List as
// a StrayFilesError — alongside the valid names, never silently dropped.
func TestListSurfacesStrayFiles(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(b, "good", randomTable(rand.New(rand.NewSource(13)))); err != nil {
		t.Fatal(err)
	}
	// "%zz" is not a valid escape, so this name cannot have been written
	// by the backend (it always writes url.PathEscape output).
	stray := "%zz-bogus.tcs"
	if err := os.WriteFile(filepath.Join(dir, stray), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := b.List()
	if len(names) != 1 || names[0] != "good" {
		t.Fatalf("names %v, want [good]", names)
	}
	var strays *StrayFilesError
	if !errors.As(err, &strays) {
		t.Fatalf("List error %v, want a *StrayFilesError", err)
	}
	if len(strays.Files) != 1 || strays.Files[0] != stray {
		t.Fatalf("stray files %v, want [%s]", strays.Files, stray)
	}

	// A clean directory reports no error at all.
	if err := os.Remove(filepath.Join(dir, stray)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.List(); err != nil {
		t.Fatalf("List after cleanup: %v", err)
	}
}

// TestStreamAllocatesOnce pins the cost of FileBackend.Stream: one scan
// and one replay, each reading blocks into one reused buffer, so a Stream
// with an empty handler allocates little beyond the decoded column values
// themselves — on a fresh backend, whose write-side state the same replay
// fills, and again once that state is cached. The history with 50
// deletion epochs pins that a tombstone's replay costs its ids, not a
// remap of every row it renumbers.
func TestStreamAllocatesOnce(t *testing.T) {
	tbl := synth.PatientDischarge(100000, synth.DefaultSeed)
	dir := t.TempDir()
	w, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pd", "pd-deletes"} {
		if err := Write(w, name, tbl); err != nil {
			t.Fatal(err)
		}
	}
	rows := tbl.Len()
	for e := 0; e < 50; e++ {
		if err := w.DeleteEpoch("pd-deletes", spreadIDs(10, rows)); err != nil {
			t.Fatal(err)
		}
		rows -= 10
	}
	colBytes := float64(tbl.Len() * tbl.Width() * 8)
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pd", "pd-deletes"} {
		for _, pass := range []string{"fresh", "cached"} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := b.Stream(name, StreamHandler{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if ratio := float64(after.TotalAlloc-before.TotalAlloc) / colBytes; ratio > 1.25 {
				t.Errorf("%s, %s backend: Stream allocated %.2fx the %.1f MB of column values, want <= 1.25x",
					name, pass, ratio, colBytes/1e6)
			}
		}
	}
}

// TestLoadCopiesTableOnce pins Load's cost to the table, not to its
// deletion history: tombstones drop rows from a list of live rows and the
// live rows are compacted in place at the end, so a load after 50 ten-row
// deletion epochs allocates about what a load after 10 does and at most
// 1.5x a load with none, and it yields the same table as deleting the rows
// from the table in memory.
func TestLoadCopiesTableOnce(t *testing.T) {
	tbl := synth.PatientDischarge(100000, synth.DefaultSeed)
	b := newBackend(t)
	alloc := make(map[int]uint64)
	for _, epochs := range []int{0, 10, 50} {
		name := fmt.Sprintf("pd-%d", epochs)
		if err := Write(b, name, tbl); err != nil {
			t.Fatal(err)
		}
		want := tbl
		for e := 0; e < epochs; e++ {
			ids := spreadIDs(10, want.Len())
			if err := b.DeleteEpoch(name, ids); err != nil {
				t.Fatal(err)
			}
			want = deleteRows(t, want, ids)
		}
		r := reopen(t, b)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got, _, err := Load(r, name)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if TableHash(got) != TableHash(want) {
			t.Fatalf("%d deletion epochs: loaded table differs from the in-memory deletions", epochs)
		}
		alloc[epochs] = after.TotalAlloc - before.TotalAlloc
		t.Logf("Load after %d deletion epochs allocates %.1f MB", epochs, float64(alloc[epochs])/1e6)
	}
	if ratio := float64(alloc[50]) / float64(alloc[10]); ratio > 1.25 {
		t.Errorf("Load after 50 deletion epochs allocated %.2fx what it did after 10, want <= 1.25x", ratio)
	}
	if ratio := float64(alloc[50]) / float64(alloc[0]); ratio > 1.5 {
		t.Errorf("Load after 50 deletion epochs allocated %.2fx what it did after none, want <= 1.5x", ratio)
	}
}

// deleteRows returns tbl without the given ascending row ids.
func deleteRows(t *testing.T, tbl *dataset.Table, ids []int) *dataset.Table {
	t.Helper()
	keep := make([]int, 0, tbl.Len()-len(ids))
	for r, ti := 0, 0; r < tbl.Len(); r++ {
		if ti < len(ids) && ids[ti] == r {
			ti++
			continue
		}
		keep = append(keep, r)
	}
	sub, err := tbl.Subset(keep)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// spreadIDs returns n distinct row ids spread evenly over rows.
func spreadIDs(n, rows int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i * (rows / n)
	}
	return ids
}

// TestDeleteEpochAllocatesByIDs pins DeleteEpoch's cost to the ids it
// tombstones: on a 100k-row dataset whose write-side state is cached, a
// 100-id deletion allocates a few words per id plus a fixed overhead for
// the write, nothing proportional to the rows.
func TestDeleteEpochAllocatesByIDs(t *testing.T) {
	tbl := synth.PatientDischarge(100000, synth.DefaultSeed)
	b := newBackend(t)
	if err := Write(b, "pd", tbl); err != nil {
		t.Fatal(err)
	}
	const ids, reps = 100, 5
	rows := tbl.Len()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if err := b.DeleteEpoch("pd", spreadIDs(ids, rows)); err != nil {
			t.Fatal(err)
		}
		rows -= ids
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / reps
	t.Logf("DeleteEpoch of %d ids on %d rows allocates %d B", ids, tbl.Len(), perCall)
	if limit := uint64(64*ids + 8<<10); perCall > limit {
		t.Errorf("DeleteEpoch of %d ids on %d rows allocated %d B, want <= %d B",
			ids, tbl.Len(), perCall, limit)
	}
}
