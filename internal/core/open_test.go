package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/synth"
)

// mixedTable builds a small table with categorical columns so the
// restart tests exercise dictionary persistence, not just numerics.
func mixedTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "zip", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "city", Role: dataset.QuasiIdentifier, Kind: dataset.Categorical},
		dataset.Attribute{Name: "disease", Role: dataset.Confidential, Kind: dataset.Categorical},
	)
	tbl := dataset.MustTable(schema)
	cities := []string{"oslo", "bergen", "tromso", "stavanger"}
	diseases := []string{"flu", "cold", "asthma"}
	src := synth.PatientDischarge(n, 17)
	for r := 0; r < n; r++ {
		age := src.Value(r, 0)
		zip := src.Value(r, 1)
		if err := tbl.AppendRow(age, zip, cities[r%len(cities)], diseases[(r*7)%len(diseases)]); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func releaseCSV(t *testing.T, e *Engine, spec Spec) []byte {
	t.Helper()
	res, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Anonymized.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Create → epochs → kill → Open must restore the same engine: epoch
// counter, table hash and byte-identical releases.
func TestOpenRestoresEngineAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	b, err := store.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mixedTable(t, 120)
	eng, err := Create(b, "ds", tbl)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Algorithm: TClosenessFirst, K: 4, T: 0.3}

	// The engine serves what was written, bit for bit.
	if got, want := store.TableHash(eng.Table()), store.TableHash(tbl); got != want {
		t.Fatalf("created engine hash %s, source %s", got, want)
	}

	// Epoch 1: append rows introducing a brand-new dictionary label.
	if err := eng.Append(
		[]any{33.0, 90100.0, "kirkenes", "flu"},
		[]any{58.0, 90200.0, "oslo", "asthma"},
	); err != nil {
		t.Fatal(err)
	}
	// Epoch 2: tombstone a few rows.
	if err := eng.Delete(3, 17, 40); err != nil {
		t.Fatal(err)
	}
	release := releaseCSV(t, eng, spec)

	// "Restart": a fresh backend over the same directory, a fresh engine.
	b2, err := store.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := Open(b2, "ds")
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Epoch() != 2 {
		t.Fatalf("restored epoch %d, want 2", eng2.Epoch())
	}
	if eng2.Len() != eng.Len() {
		t.Fatalf("restored %d rows, want %d", eng2.Len(), eng.Len())
	}
	if got, want := store.TableHash(eng2.Table()), store.TableHash(eng.Table()); got != want {
		t.Fatalf("restored table hash %s, want %s", got, want)
	}
	if got := releaseCSV(t, eng2, spec); !bytes.Equal(got, release) {
		t.Fatal("release after restart differs from release before")
	}

	// The restored engine continues the epoch sequence durably: labels
	// introduced after the restart must reuse the persisted dictionary, and
	// the appended record must follow the live rows the deletion left, just
	// as it does on the engine that never restarted.
	late := []any{41.0, 90300.0, "kirkenes", "cold"}
	if err := eng2.Append(late); err != nil {
		t.Fatal(err)
	}
	unrestarted := eng.Table().Clone()
	if err := unrestarted.AppendRow(late...); err != nil {
		t.Fatal(err)
	}
	checkLastRow := func(name string, tbl *dataset.Table) {
		t.Helper()
		r := tbl.Len() - 1
		if tbl.Value(r, 0) != 41 || tbl.Value(r, 1) != 90300 ||
			tbl.Label(r, 2) != "kirkenes" || tbl.Label(r, 3) != "cold" {
			t.Fatalf("%s: appended row reads %v, want %v", name, tbl.Row(r), late)
		}
	}
	checkLastRow("restored engine", eng2.Table())
	if got, want := store.TableHash(eng2.Table()), store.TableHash(unrestarted); got != want {
		t.Fatalf("restored engine after append: table hash %s, want %s", got, want)
	}
	b3, err := store.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng3, err := Open(b3, "ds")
	if err != nil {
		t.Fatal(err)
	}
	if eng3.Epoch() != 3 {
		t.Fatalf("epoch after continued append: %d, want 3", eng3.Epoch())
	}
	if got, want := store.TableHash(eng3.Table()), store.TableHash(eng2.Table()); got != want {
		t.Fatalf("continued table hash %s, want %s", got, want)
	}
	checkLastRow("reopened engine", eng3.Table())
}

// Warm replay must keep working across a restart: Open restores only the
// epoch counter, so a seed cached at the restored epoch must replay the
// deletions committed after it by their own epoch numbers, without skew.
func TestOpenRestoresWarmReplay(t *testing.T) {
	dir := t.TempDir()
	b, err := store.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Create(b, "ds", mixedTable(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Algorithm: TClosenessFirst, K: 4, T: 0.3, Warm: true}
	if _, err := eng.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(5, 6, 7); err != nil {
		t.Fatal(err)
	}
	resLive, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if resLive.Warm == nil {
		t.Fatal("live warm run did not use the warm cache")
	}

	// Restart (epoch counter now 1, warm cache empty), reseed the cache at
	// the restored epoch, commit two more epochs, and verify warm replay
	// crosses them.
	b2, err := store.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := Open(b2, "ds")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Delete(10, 11); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Append([]any{29.0, 90500.0, "oslo", "cold"}); err != nil {
		t.Fatal(err)
	}
	res3, err := eng2.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Warm == nil {
		t.Fatal("warm run after restart+delete+append did not use the warm cache")
	}
}
