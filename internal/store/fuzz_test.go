package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// validFileBytes builds a committed dataset file (snapshot + one append
// epoch + one delete epoch) to seed the fuzzer with realistic input.
func validFileBytes(t testing.TB) []byte {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl := randomTable(rand.New(rand.NewSource(12)))
	for tbl.Len() < 4 {
		tbl = randomTable(rand.New(rand.NewSource(13)))
	}
	if err := Write(b, "seed", tbl); err != nil {
		t.Fatal(err)
	}
	from, lens := tbl.Len(), DictLens(tbl)
	if err := tbl.AppendRow(rowFor(tbl)...); err != nil {
		t.Fatal(err)
	}
	if err := AppendRows(b, "seed", tbl, from, lens); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteEpoch("seed", []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "seed.tcs"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// zeroChunkFileBytes builds a committed dataset file whose snapshot holds
// no chunk at all, followed by a deletion epoch that removes nothing.
func zeroChunkFileBytes(t testing.TB) []byte {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.Create("seed", randomTable(rand.New(rand.NewSource(12))).Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteEpoch("seed", nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "seed.tcs"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// decodeBytes decodes an in-memory file image the way FileBackend.Stream
// serves Load: a validating pass yields the schema and row count Begin
// receives, then the committed region replays through Load's handler,
// chunks and tombstones alike.
func decodeBytes(data []byte) error {
	end, err := scanValid(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	st, err := replayCommitted(bytes.NewReader(data), end, replayHooks{})
	if err != nil {
		return err
	}
	var l loader
	h := l.handler()
	if err := h.Begin(st.schema, st.rows); err != nil {
		return err
	}
	_, err = replayCommitted(bytes.NewReader(data), end, replayHooks{chunk: h.Chunk, tomb: h.Tombstone})
	return err
}

func hostileMutations(raw []byte) [][]byte {
	muts := [][]byte{
		{},
		[]byte(magic),
		raw[:len(raw)/2],
		raw[:len(raw)-3],
		append(append([]byte(nil), raw...), 0xDE, 0xAD),
	}
	for _, off := range []int{0, 9, len(raw) / 3, len(raw) - 5} {
		m := append([]byte(nil), raw...)
		m[off] ^= 0x40
		muts = append(muts, m)
	}
	return muts
}

// FuzzFileDecode pins the decoder's contract on hostile input: decode
// either succeeds or fails with a typed error (ErrCorrupt /
// ErrTruncated) — it never panics and never returns an untyped failure.
func FuzzFileDecode(f *testing.F) {
	raw := validFileBytes(f)
	f.Add(raw)
	for _, m := range hostileMutations(raw) {
		f.Add(m)
	}
	f.Add(zeroChunkFileBytes(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := decodeBytes(data); err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("untyped decode error: %v", err)
			}
		}
	})
}

// The same contract through the real Load path, for the seed corpus.
func TestOpenHostileInput(t *testing.T) {
	raw := validFileBytes(t)
	inputs := append([][]byte{raw}, hostileMutations(raw)...)
	for i, data := range append(inputs, zeroChunkFileBytes(t)) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "ds.tcs"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := NewFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		tbl, _, err := Load(b, "ds")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("input %d: untyped error: %v", i, err)
			}
			continue
		}
		if tbl == nil {
			t.Fatalf("input %d: nil table without error", i)
		}
	}
}
