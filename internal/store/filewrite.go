package store

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/dataset"
)

// lockState returns the dataset's write-side state with its mutex held
// (the caller must unlock), loading it from disk on first use. A state
// poisoned by a failed write (schema cleared) is transparently reloaded,
// so the cache always mirrors what is durably on disk.
func (b *FileBackend) lockState(name string) (*fileState, error) {
	st := b.lockEntry(name)
	if st.schema == nil {
		fresh, err := b.load(name, replayHooks{})
		if err != nil {
			b.dropEntry(name, st)
			return nil, err
		}
		st.fill(fresh)
	}
	return st, nil
}

// lockEntry returns the dataset's state entry, creating an empty one,
// with its mutex held.
func (b *FileBackend) lockEntry(name string) *fileState {
	b.mu.Lock()
	st, ok := b.states[name]
	if !ok {
		st = &fileState{}
		b.states[name] = st
	}
	b.mu.Unlock()
	st.mu.Lock()
	return st
}

// dropEntry unlocks an entry that failed to load and forgets it, so a
// name that does not decode leaves nothing cached.
func (b *FileBackend) dropEntry(name string, st *fileState) {
	st.mu.Unlock()
	b.mu.Lock()
	if b.states[name] == st {
		delete(b.states, name)
	}
	b.mu.Unlock()
}

// fill copies freshly decoded state into the cached entry.
func (st *fileState) fill(fresh *fileState) {
	st.schema = fresh.schema
	st.rows = fresh.rows
	st.epoch = fresh.epoch
	st.epochs = fresh.epochs
	st.dictLens = fresh.dictLens
	st.rolling = fresh.rolling
}

// Stream implements Backend with one scan and one replay of the file: the
// scan finds the committed region and its final row count, and the replay
// fires Begin when it decodes the schema block, then feeds the chunks and
// tombstones to the handler one at a time — nothing beyond the current
// chunk is resident. A backend that has not cached the dataset's
// write-side state fills it from the same replay.
func (b *FileBackend) Stream(name string, h StreamHandler) ([]Epoch, error) {
	st := b.lockEntry(name)
	fresh, err := b.load(name, replayHooks{begin: h.Begin, chunk: h.Chunk, tomb: h.Tombstone})
	if err != nil {
		if st.schema == nil {
			b.dropEntry(name, st)
		} else {
			st.mu.Unlock()
		}
		return nil, err
	}
	defer st.mu.Unlock()
	if st.schema == nil {
		st.fill(fresh)
	}
	return fresh.epochs, nil
}

// validateCodes rejects categorical values that are not integral codes
// within the column's post-chunk dictionary, so structurally valid but
// meaningless data never reaches disk.
func validateCodes(schema *dataset.Schema, ch ColumnChunk, dictLens []int) error {
	for c := 0; c < schema.Len(); c++ {
		if schema.Attr(c).Kind != dataset.Categorical {
			continue
		}
		limit := float64(dictLens[c])
		if ch.DictDelta != nil {
			limit += float64(len(ch.DictDelta[c]))
		}
		for _, v := range ch.Cols[c] {
			if v != math.Trunc(v) || v < 0 || v >= limit {
				return fmt.Errorf("store: column %d value %v is not a dictionary code below %v", c, v, limit)
			}
		}
	}
	return nil
}

// oldToNewMap builds a deletion epoch's row-id mapping: rows is the
// pre-epoch row count, ids the sorted unique tombstoned ids.
func oldToNewMap(rows int, ids []int) []int {
	oldToNew := make([]int, rows)
	next, ti := 0, 0
	for r := 0; r < rows; r++ {
		if ti < len(ids) && ids[ti] == r {
			oldToNew[r] = -1
			ti++
			continue
		}
		oldToNew[r] = next
		next++
	}
	return oldToNew
}

// appendBlocks appends one epoch's sealed blocks to the dataset file and
// fsyncs. On any failure the file is truncated back to its previous size
// when possible and the cached state is poisoned, forcing the next
// operation to reload the on-disk truth — whatever actually landed.
func (b *FileBackend) appendBlocks(name string, st *fileState, buf []byte) error {
	fail := func(err error) error {
		st.schema = nil // poison; see lockState
		return err
	}
	f, err := os.OpenFile(b.path(name), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fail(err)
	}
	prevEnd, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fail(err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Truncate(prevEnd)
		f.Close()
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		f.Truncate(prevEnd)
		f.Close()
		return fail(err)
	}
	return f.Close()
}

// AppendEpoch implements Backend: one buffered write of the chunk's
// dictionary pages, segments and commit manifest, fsynced before return.
func (b *FileBackend) AppendEpoch(name string, ch ColumnChunk) error {
	st, err := b.lockState(name)
	if err != nil {
		return err
	}
	defer st.mu.Unlock()
	if err := validateChunk(st.schema, ch); err != nil {
		return err
	}
	if err := validateCodes(st.schema, ch, st.dictLens); err != nil {
		return err
	}
	w := newBlockBuf(st.rolling)
	chunkBlocks(w, ch)
	w.block(kindCommit, commitPayload(epochAppend, st.epoch+1, st.rows+ch.Rows, ch.Rows, w.rolling))
	if err := b.appendBlocks(name, st, w.buf); err != nil {
		return err
	}
	st.rows += ch.Rows
	st.epoch++
	st.epochs = append(st.epochs, Epoch{Appended: ch.Rows})
	for c, delta := range ch.DictDelta {
		st.dictLens[c] += len(delta)
	}
	st.rolling = w.rolling
	return nil
}

// DeleteEpoch implements Backend: a tombstone block plus commit manifest
// in one fsynced write.
func (b *FileBackend) DeleteEpoch(name string, rowIDs []int) error {
	st, err := b.lockState(name)
	if err != nil {
		return err
	}
	defer st.mu.Unlock()
	seen := make(map[int]bool, len(rowIDs))
	ids := make([]int, 0, len(rowIDs))
	for _, id := range rowIDs {
		if id < 0 || id >= st.rows {
			return fmt.Errorf("store: delete row %d out of range (%d rows)", id, st.rows)
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	w := newBlockBuf(st.rolling)
	w.block(kindTombstone, tombstonePayload(ids))
	w.block(kindCommit, commitPayload(epochDelete, st.epoch+1, st.rows-len(ids), 0, w.rolling))
	if err := b.appendBlocks(name, st, w.buf); err != nil {
		return err
	}
	st.epochs = append(st.epochs, Epoch{OldToNew: oldToNewMap(st.rows, ids)})
	st.rows -= len(ids)
	st.epoch++
	st.rolling = w.rolling
	return nil
}

// fileSnapshotWriter streams a new dataset's snapshot into a .tmp file,
// renamed into place only at Commit so every .tcs file is committed.
type fileSnapshotWriter struct {
	b        *FileBackend
	name     string
	tmp      string
	f        *os.File
	bw       *bufio.Writer
	schema   *dataset.Schema
	dictLens []int
	rows     int
	rolling  uint64
	done     bool
}

// Create implements Backend.
func (b *FileBackend) Create(name string, schema *dataset.Schema) (SnapshotWriter, error) {
	if name == "" {
		return nil, fmt.Errorf("store: empty dataset name")
	}
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("store: nil or empty schema")
	}
	b.mu.Lock()
	if b.tmps[name] {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if _, err := os.Stat(b.path(name)); err == nil {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	b.tmps[name] = true
	b.mu.Unlock()
	tmp := b.path(name) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		b.mu.Lock()
		delete(b.tmps, name)
		b.mu.Unlock()
		return nil, err
	}
	w := &fileSnapshotWriter{
		b: b, name: name, tmp: tmp, f: f,
		bw:     bufio.NewWriterSize(f, 1<<16),
		schema: schema, dictLens: make([]int, schema.Len()),
	}
	bb := newBlockBuf(0)
	bb.block(kindSchema, schemaPayload(schema))
	w.rolling = bb.rolling
	if _, err := w.bw.WriteString(magic); err != nil {
		w.abort()
		return nil, err
	}
	if _, err := w.bw.Write(bb.buf); err != nil {
		w.abort()
		return nil, err
	}
	return w, nil
}

func (w *fileSnapshotWriter) Append(ch ColumnChunk) error {
	if w.done {
		return fmt.Errorf("store: snapshot writer already closed")
	}
	if err := validateChunk(w.schema, ch); err != nil {
		return err
	}
	if err := validateCodes(w.schema, ch, w.dictLens); err != nil {
		return err
	}
	bb := newBlockBuf(w.rolling)
	chunkBlocks(bb, ch)
	if _, err := w.bw.Write(bb.buf); err != nil {
		return err
	}
	w.rolling = bb.rolling
	w.rows += ch.Rows
	for c, delta := range ch.DictDelta {
		w.dictLens[c] += len(delta)
	}
	return nil
}

func (w *fileSnapshotWriter) Commit() error {
	if w.done {
		return fmt.Errorf("store: snapshot writer already closed")
	}
	bb := newBlockBuf(w.rolling)
	bb.block(kindCommit, commitPayload(epochSnapshot, 0, w.rows, w.rows, w.rolling))
	if _, err := w.bw.Write(bb.buf); err != nil {
		w.abort()
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.abort()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.abort()
		return err
	}
	if err := w.f.Close(); err != nil {
		w.abort()
		return err
	}
	final := w.b.path(w.name)
	if err := os.Rename(w.tmp, final); err != nil {
		os.Remove(w.tmp)
		w.release()
		return err
	}
	syncDir(w.b.dir)
	st := &fileState{
		schema: w.schema, rows: w.rows,
		dictLens: w.dictLens, rolling: bb.rolling,
	}
	w.b.mu.Lock()
	w.b.states[w.name] = st
	delete(w.b.tmps, w.name)
	w.b.mu.Unlock()
	w.done = true
	return nil
}

func (w *fileSnapshotWriter) Close() error {
	if !w.done {
		w.abort()
	}
	return nil
}

// abort discards the partial snapshot: close, remove the temp file, free
// the name.
func (w *fileSnapshotWriter) abort() {
	w.f.Close()
	os.Remove(w.tmp)
	w.release()
}

func (w *fileSnapshotWriter) release() {
	w.b.mu.Lock()
	delete(w.b.tmps, w.name)
	w.b.mu.Unlock()
	w.done = true
}

// syncDir fsyncs a directory so a rename into it is durable; best-effort
// on filesystems that reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
