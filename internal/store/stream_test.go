package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

// Stream must replay the committed history — the snapshot chunk, then
// each epoch's chunk or tombstone, in commit order — and Load, which
// rebuilds the table from that replay, must reproduce the table and epoch
// log the test maintains itself, on both backends, across random epoch
// histories.
func TestStreamReplayProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		tbl := randomTable(rng)
		for kind, b := range backends(t) {
			name := fmt.Sprintf("ds-%d", trial)
			if err := Write(b, name, tbl); err != nil {
				t.Fatal(err)
			}
			cur := tbl.Clone()
			var wantEpochs []Epoch
			wantEvents := []string{fmt.Sprintf("chunk %d", tbl.Len())}
			for e := 0; e < 4; e++ {
				if cur.Len() > 2 && rng.Intn(2) == 0 {
					var ids []int
					for r := 0; r < cur.Len(); r++ {
						if rng.Intn(4) == 0 {
							ids = append(ids, r)
						}
					}
					if err := b.DeleteEpoch(name, ids); err != nil {
						t.Fatalf("%s delete: %v", kind, err)
					}
					wantEpochs = append(wantEpochs, Epoch{OldToNew: oldToNewMap(cur.Len(), ids)})
					wantEvents = append(wantEvents, fmt.Sprintf("tombstone %v", ids))
					cur = withoutRows(t, cur, ids)
					continue
				}
				from, lens := cur.Len(), DictLens(cur)
				n := 1 + rng.Intn(10)
				for r := 0; r < n; r++ {
					vals := make([]any, cur.Width())
					for c := 0; c < cur.Width(); c++ {
						if cur.Schema().Attr(c).Kind == dataset.Categorical {
							vals[c] = fmt.Sprintf("new-%d-%d-%d", e, r, rng.Intn(3))
						} else {
							vals[c] = rng.NormFloat64()
						}
					}
					if err := cur.AppendRow(vals...); err != nil {
						t.Fatal(err)
					}
				}
				if err := AppendRows(b, name, cur, from, lens); err != nil {
					t.Fatalf("%s append: %v", kind, err)
				}
				wantEpochs = append(wantEpochs, Epoch{Appended: n})
				wantEvents = append(wantEvents, fmt.Sprintf("chunk %d", n))
			}

			var events []string
			beginRows := -1
			if _, err := b.Stream(name, StreamHandler{
				Begin: func(_ *dataset.Schema, rows int) error {
					beginRows = rows
					return nil
				},
				Chunk: func(ch ColumnChunk) error {
					events = append(events, fmt.Sprintf("chunk %d", ch.Rows))
					return nil
				},
				Tombstone: func(ids []int) error {
					events = append(events, fmt.Sprintf("tombstone %v", ids))
					return nil
				},
			}); err != nil {
				t.Fatalf("%s stream: %v", kind, err)
			}
			if beginRows != cur.Len() {
				t.Fatalf("%s: Begin rows hint %d, final table has %d", kind, beginRows, cur.Len())
			}
			if fmt.Sprint(events) != fmt.Sprint(wantEvents) {
				t.Fatalf("%s: stream events %v, want %v", kind, events, wantEvents)
			}

			got, epochs, err := Load(b, name)
			if err != nil {
				t.Fatalf("%s load: %v", kind, err)
			}
			requireTablesIdentical(t, cur, got)
			if len(epochs) != len(wantEpochs) {
				t.Fatalf("%s: load returned %d epochs, want %d", kind, len(epochs), len(wantEpochs))
			}
			for i := range epochs {
				if epochs[i].Appended != wantEpochs[i].Appended ||
					fmt.Sprint(epochs[i].OldToNew) != fmt.Sprint(wantEpochs[i].OldToNew) {
					t.Fatalf("%s epoch %d: %+v, want %+v", kind, i, epochs[i], wantEpochs[i])
				}
			}
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
// that removes nothing, must load as an empty table with that one epoch on
// every backend — the tombstone replays against the table Begin made.
func TestLoadZeroChunkSnapshotThenDelete(t *testing.T) {
	schema := randomTable(rand.New(rand.NewSource(14))).Schema()
	for kind, b := range backends(t) {
		w, err := b.Create("ds", schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := b.DeleteEpoch("ds", nil); err != nil {
			t.Fatalf("%s delete: %v", kind, err)
		}
		tbl, epochs, err := Load(b, "ds")
		if err != nil {
			t.Fatalf("%s load: %v", kind, err)
		}
		if tbl == nil || tbl.Len() != 0 || !tbl.Schema().Equal(schema) {
			t.Fatalf("%s: loaded %v, want an empty table over the schema", kind, tbl)
		}
		if len(epochs) != 1 || epochs[0].OldToNew == nil || len(epochs[0].OldToNew) != 0 {
			t.Fatalf("%s: epochs %+v, want one empty deletion epoch", kind, epochs)
		}
	}
}

// All-nil hooks are allowed: Stream then only returns the epoch log.
func TestStreamNilHooks(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(12)))
	for kind, b := range backends(t) {
		if err := Write(b, "ds", tbl); err != nil {
			t.Fatal(err)
		}
		if err := b.DeleteEpoch("ds", []int{0}); err != nil {
			t.Fatal(err)
		}
		epochs, err := b.Stream("ds", StreamHandler{})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(epochs) != 1 || epochs[0].OldToNew == nil {
			t.Fatalf("%s: epochs %+v, want one deletion epoch", kind, epochs)
		}
		if _, err := b.Stream("missing", StreamHandler{}); !errors.Is(err, ErrUnknownDataset) {
			t.Fatalf("%s: unknown dataset error %v", kind, err)
		}
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
