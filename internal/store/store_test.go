package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// newBackend returns a file store over a fresh directory.
func newBackend(t *testing.T) *FileBackend {
	t.Helper()
	b, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reopen returns a fresh backend over b's directory: a process restart,
// with nothing cached.
func reopen(t *testing.T, b *FileBackend) *FileBackend {
	t.Helper()
	fresh, err := NewFileBackend(b.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// tombstones returns the row ids of every deletion epoch Stream replays,
// in commit order.
func tombstones(t *testing.T, b Backend, name string) [][]int {
	t.Helper()
	var out [][]int
	if _, err := b.Stream(name, StreamHandler{Tombstone: func(ids []int) error {
		out = append(out, ids)
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	return out
}

// randomTable generates a table with adversarial content: mixed kinds,
// empty and unicode labels, negative zero, infinities and NaN values.
func randomTable(rng *rand.Rand) *dataset.Table {
	width := 2 + rng.Intn(4)
	attrs := make([]dataset.Attribute, width)
	for c := range attrs {
		kind := dataset.Numeric
		if rng.Intn(2) == 0 {
			kind = dataset.Categorical
		}
		role := dataset.QuasiIdentifier
		if c == width-1 {
			role = dataset.Confidential
		}
		attrs[c] = dataset.Attribute{Name: fmt.Sprintf("a%d", c), Role: role, Kind: kind}
	}
	tbl := dataset.MustTable(dataset.MustSchema(attrs...))
	labels := []string{"", "oslo", "ærøskøbing", "日本", "x,y\n\"z\"", "-0", "b"}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, -7.25}
	rows := rng.Intn(120)
	for r := 0; r < rows; r++ {
		vals := make([]any, width)
		for c := range vals {
			if attrs[c].Kind == dataset.Categorical {
				vals[c] = labels[rng.Intn(len(labels))]
			} else if rng.Intn(4) == 0 {
				vals[c] = specials[rng.Intn(len(specials))]
			} else {
				vals[c] = rng.NormFloat64() * 100
			}
		}
		if err := tbl.AppendRow(vals...); err != nil {
			panic(err)
		}
	}
	return tbl
}

// requireTablesIdentical asserts bit-identity: schema, dictionaries
// (order and content — which pins the label→code assignment), and every
// value's float64 bits.
func requireTablesIdentical(t *testing.T, want, got *dataset.Table) {
	t.Helper()
	ws, gs := want.Schema(), got.Schema()
	if ws.Len() != gs.Len() {
		t.Fatalf("width: want %d, got %d", ws.Len(), gs.Len())
	}
	for c := 0; c < ws.Len(); c++ {
		if ws.Attr(c) != gs.Attr(c) {
			t.Fatalf("attr %d: want %+v, got %+v", c, ws.Attr(c), gs.Attr(c))
		}
		wd, gd := want.Dict(c), got.Dict(c)
		if len(wd) != len(gd) {
			t.Fatalf("col %d dict: want %d labels, got %d", c, len(wd), len(gd))
		}
		for i := range wd {
			if wd[i] != gd[i] {
				t.Fatalf("col %d dict[%d]: want %q, got %q", c, i, wd[i], gd[i])
			}
		}
	}
	if want.Len() != got.Len() {
		t.Fatalf("rows: want %d, got %d", want.Len(), got.Len())
	}
	for c := 0; c < ws.Len(); c++ {
		wv, gv := want.ColumnView(c), got.ColumnView(c)
		for r := range wv {
			if math.Float64bits(wv[r]) != math.Float64bits(gv[r]) {
				t.Fatalf("value (%d,%d): want %v (%x), got %v (%x)",
					r, c, wv[r], math.Float64bits(wv[r]), gv[r], math.Float64bits(gv[r]))
			}
		}
	}
	if TableHash(want) != TableHash(got) {
		t.Fatal("TableHash disagrees on bit-identical tables")
	}
}

// Snapshot → reopen must reproduce the table bit-identically, including
// through a fresh backend over the same directory (a process restart).
func TestSnapshotRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		tbl := randomTable(rng)
		b := newBackend(t)
		name := fmt.Sprintf("ds-%d", trial)
		if err := Write(b, name, tbl); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, epoch, err := Load(b, name)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if epoch != 0 {
			t.Fatalf("fresh snapshot at epoch %d", epoch)
		}
		requireTablesIdentical(t, tbl, got)
		reopened, _, err := Load(reopen(t, b), name)
		if err != nil {
			t.Fatalf("reopen trial %d: %v", trial, err)
		}
		requireTablesIdentical(t, tbl, reopened)
	}
}

// Epoch replay: a sequence of appends (with new dictionary labels) and
// deletes must reproduce the table, the last epoch number and every
// deletion's tombstoned ids, in-process and across a reopen.
func TestEpochReplayProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		tbl := randomTable(rng)
		b := newBackend(t)
		name := fmt.Sprintf("ds-%d", trial)
		if err := Write(b, name, tbl); err != nil {
			t.Fatal(err)
		}
		cur, wantTombs := randomEpochs(t, rng, b, name, tbl, nil)
		check := func(label string, open Backend) {
			got, epoch, err := Load(open, name)
			if err != nil {
				t.Fatalf("%s open: %v", label, err)
			}
			requireTablesIdentical(t, cur, got)
			if epoch != 4 {
				t.Fatalf("%s: last epoch %d, want 4", label, epoch)
			}
			if got := tombstones(t, open, name); fmt.Sprint(got) != fmt.Sprint(wantTombs) {
				t.Fatalf("%s: tombstones %v, want %v", label, got, wantTombs)
			}
		}
		check("live", b)
		check("reopened", reopen(t, b))
	}
}

// randomEpochs commits four random epochs to the dataset: each is a
// deletion of about a quarter of the rows or an append of 1-10 rows with
// new dictionary labels. It returns the table after them and the ids each
// deletion tombstoned; events, when non-nil, also gets one "chunk n" or
// "tombstone [ids]" line per epoch.
func randomEpochs(t *testing.T, rng *rand.Rand, b Backend, name string, tbl *dataset.Table, events *[]string) (*dataset.Table, [][]int) {
	t.Helper()
	cur := tbl.Clone()
	var tombs [][]int
	note := func(format string, arg any) {
		if events != nil {
			*events = append(*events, fmt.Sprintf(format, arg))
		}
	}
	for e := 0; e < 4; e++ {
		if cur.Len() > 2 && rng.Intn(2) == 0 {
			var ids []int
			for r := 0; r < cur.Len(); r++ {
				if rng.Intn(4) == 0 {
					ids = append(ids, r)
				}
			}
			if err := b.DeleteEpoch(name, ids); err != nil {
				t.Fatalf("delete: %v", err)
			}
			tombs = append(tombs, ids)
			note("tombstone %v", ids)
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
			t.Fatalf("append: %v", err)
		}
		note("chunk %d", n)
	}
	return cur, tombs
}

// datasetFile writes a snapshot plus one append epoch and returns the
// backend dir, file path, and the file size right after the snapshot
// commit (= the first commit boundary).
func datasetFile(t *testing.T) (dir, path string, snapEnd int64, snapRows int) {
	t.Helper()
	dir = t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl := randomTable(rand.New(rand.NewSource(7)))
	for tbl.Len() < 3 { // ensure a non-trivial snapshot
		tbl = randomTable(rand.New(rand.NewSource(8)))
	}
	if err := Write(b, "ds", tbl); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, "ds.tcs")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	snapEnd, snapRows = fi.Size(), tbl.Len()
	from, lens := tbl.Len(), DictLens(tbl)
	if err := tbl.AppendRow(rowFor(tbl)...); err != nil {
		t.Fatal(err)
	}
	if err := AppendRows(b, "ds", tbl, from, lens); err != nil {
		t.Fatal(err)
	}
	return dir, path, snapEnd, snapRows
}

func rowFor(tbl *dataset.Table) []any {
	vals := make([]any, tbl.Width())
	for c := range vals {
		if tbl.Schema().Attr(c).Kind == dataset.Categorical {
			vals[c] = "appended-label"
		} else {
			vals[c] = 42.5
		}
	}
	return vals
}

// A torn tail — truncation anywhere after the last surviving commit —
// must silently reopen at that commit, not error.
func TestTornTailRecovers(t *testing.T) {
	dir, path, snapEnd, snapRows := datasetFile(t)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{snapEnd, snapEnd + 1, snapEnd + 5, int64(len(full)) - 1} {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := NewFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		tbl, epoch, err := Load(b, "ds")
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if tbl.Len() != snapRows || epoch != 0 {
			t.Fatalf("cut at %d: %d rows at epoch %d, want snapshot state %d/0",
				cut, tbl.Len(), epoch, snapRows)
		}
	}
	// Untouched file still has the append epoch.
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	b, _ := NewFileBackend(dir)
	tbl, epoch, err := Load(b, "ds")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != snapRows+1 || epoch != 1 {
		t.Fatalf("full file: %d rows at epoch %d", tbl.Len(), epoch)
	}
}

// Corruption in the committed region must surface as ErrCorrupt; a file
// that ends before its first commit must surface as ErrTruncated. Never
// a panic, never silent data loss.
func TestCorruptAndTruncated(t *testing.T) {
	dir, path, snapEnd, _ := datasetFile(t)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reopen := func() error {
		b, err := NewFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = Load(b, "ds")
		return err
	}
	// Flip one byte at several places inside the committed region.
	for _, off := range []int64{8, snapEnd / 2, snapEnd - 2} {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0xFF
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := reopen(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", off, err)
		}
	}
	// Bad magic.
	mut := append([]byte(nil), full...)
	mut[0] = 'X'
	os.WriteFile(path, mut, 0o644)
	if err := reopen(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
	// Truncated before the first commit.
	for _, cut := range []int64{0, 4, 8, 20, snapEnd - 1} {
		if int(cut) > len(full) {
			continue
		}
		os.WriteFile(path, full[:cut], 0o644)
		if err := reopen(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
}

func TestBackendErrors(t *testing.T) {
	b := newBackend(t)
	if _, _, err := Load(b, "nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("open missing: %v", err)
	}
	if err := b.Remove("nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("remove missing: %v", err)
	}
	tbl := randomTable(rand.New(rand.NewSource(3)))
	if err := Write(b, "ds", tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Create("ds", tbl.Schema()); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if err := b.DeleteEpoch("ds", []int{tbl.Len() + 5}); err == nil {
		t.Error("out-of-range delete accepted")
	}
	names, err := b.List()
	if err != nil || len(names) != 1 || names[0] != "ds" {
		t.Errorf("list %v, %v", names, err)
	}
	if err := b.Remove("ds"); err != nil {
		t.Errorf("remove: %v", err)
	}
	if names, _ := b.List(); len(names) != 0 {
		t.Errorf("list after remove: %v", names)
	}
}

// An aborted snapshot must leave nothing behind and free the name.
func TestSnapshotAbort(t *testing.T) {
	b := newBackend(t)
	tbl := randomTable(rand.New(rand.NewSource(4)))
	w, err := b.Create("ds", tbl.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := b.Create("ds", tbl.Schema()); !errors.Is(werr, ErrExists) {
		t.Errorf("concurrent create of pending name: %v", werr)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ := b.List(); len(names) != 0 {
		t.Errorf("aborted snapshot is listed: %v", names)
	}
	if err := Write(b, "ds", tbl); err != nil {
		t.Errorf("name not freed after abort: %v", err)
	}
	ents, _ := os.ReadDir(b.Dir())
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

// IngestCSV must match dataset.ReadCSV bit for bit and honor its buffer
// budget even when that forces many small chunks.
func TestIngestCSVMatchesReadCSV(t *testing.T) {
	src := synth.PatientDischarge(2000, 11)
	var buf bytes.Buffer
	if err := src.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := dataset.ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b := newBackend(t)
	const budget = 16 << 10
	stats, err := IngestCSV(b, "ds", bytes.NewReader(buf.Bytes()), budget)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != src.Len() {
		t.Fatalf("ingested %d rows, want %d", stats.Rows, src.Len())
	}
	if stats.Chunks < 2 {
		t.Fatalf("budget %d did not force chunking (%d chunks)", budget, stats.Chunks)
	}
	if stats.MaxBufferedBytes > budget {
		t.Fatalf("buffered %d bytes, budget %d", stats.MaxBufferedBytes, budget)
	}
	got, _, err := Load(b, "ds")
	if err != nil {
		t.Fatal(err)
	}
	requireTablesIdentical(t, want, got)
}

// The headline contract: a million-row CSV ingests under a bounded
// buffer budget — the table is never materialized on the write path —
// and reopens bit-identical without re-parsing CSV.
func TestIngestMillionRowsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row ingest skipped in -short mode")
	}
	const rows = 1_000_000
	src := synth.PatientDischarge(rows, 5)
	csvPath := filepath.Join(t.TempDir(), "big.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	const budget = 4 << 20
	stats, err := IngestCSV(b, "big", in, budget)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != rows {
		t.Fatalf("ingested %d rows, want %d", stats.Rows, rows)
	}
	if stats.MaxBufferedBytes > budget {
		t.Fatalf("chunk buffer peaked at %d bytes, budget %d", stats.MaxBufferedBytes, budget)
	}
	if stats.Chunks < rows*8*src.Width()/budget/2 {
		t.Fatalf("suspiciously few chunks (%d) for budget %d", stats.Chunks, budget)
	}
	got, _, err := Load(b, "big")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != rows {
		t.Fatalf("reopened %d rows, want %d", got.Len(), rows)
	}
	if TableHash(got) != TableHash(src) {
		t.Fatal("reopened table hash differs from source")
	}
}
