package store

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dataset"
)

// MemBackend is an in-memory Backend with the same contract as the file
// store — chunk history, epoch log, copy-on-read — for tests and
// ephemeral use. Safe for concurrent use.
type MemBackend struct {
	mu       sync.Mutex
	datasets map[string]*memDataset
	pending  map[string]bool
}

type memDataset struct {
	schema *dataset.Schema
	chunks []ColumnChunk // snapshot + append-epoch chunks in commit order
	epochs []Epoch
	table  *dataset.Table // current state, for validating epochs
}

// NewMemBackend returns an empty in-memory store.
func NewMemBackend() *MemBackend {
	return &MemBackend{datasets: make(map[string]*memDataset), pending: make(map[string]bool)}
}

// Close implements Backend.
func (b *MemBackend) Close() error { return nil }

// List implements Backend.
func (b *MemBackend) List() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.datasets))
	for n := range b.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements Backend.
func (b *MemBackend) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.datasets[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	delete(b.datasets, name)
	return nil
}

// Stream implements Backend. The chunk/tombstone interleaving is
// reconstructed from the epoch log: the snapshot's chunks come first
// (len(chunks) minus one per append epoch), then each epoch contributes
// its chunk or its tombstone ids (recovered from OldToNew) in order.
// Chunks are deep-copied so the handler cannot alias store history.
func (b *MemBackend) Stream(name string, h StreamHandler) ([]Epoch, error) {
	b.mu.Lock()
	d, ok := b.datasets[name]
	if !ok {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	chunks := make([]ColumnChunk, len(d.chunks))
	copy(chunks, d.chunks)
	epochs := make([]Epoch, len(d.epochs))
	copy(epochs, d.epochs)
	schema, rows := d.schema, d.table.Len()
	b.mu.Unlock()

	if h.Begin != nil {
		if err := h.Begin(schema, rows); err != nil {
			return nil, err
		}
	}
	emit := func(ch ColumnChunk) error {
		if h.Chunk == nil {
			return nil
		}
		return h.Chunk(copyChunk(ch))
	}
	snapshot := len(chunks)
	for _, ep := range epochs {
		if ep.OldToNew == nil {
			snapshot--
		}
	}
	for _, ch := range chunks[:snapshot] {
		if err := emit(ch); err != nil {
			return nil, err
		}
	}
	next := snapshot
	for _, ep := range epochs {
		if ep.OldToNew == nil {
			if err := emit(chunks[next]); err != nil {
				return nil, err
			}
			next++
			continue
		}
		if h.Tombstone == nil {
			continue
		}
		var ids []int
		for id, to := range ep.OldToNew {
			if to == -1 {
				ids = append(ids, id)
			}
		}
		if err := h.Tombstone(ids); err != nil {
			return nil, err
		}
	}
	return epochs, nil
}

// AppendEpoch implements Backend.
func (b *MemBackend) AppendEpoch(name string, ch ColumnChunk) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.datasets[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	if err := validateChunk(d.schema, ch); err != nil {
		return err
	}
	if err := validateCodes(d.schema, ch, DictLens(d.table)); err != nil {
		return err
	}
	cp := copyChunk(ch)
	if err := applyChunk(d.table, cp); err != nil {
		return err
	}
	d.chunks = append(d.chunks, cp)
	d.epochs = append(d.epochs, Epoch{Appended: ch.Rows})
	return nil
}

// DeleteEpoch implements Backend.
func (b *MemBackend) DeleteEpoch(name string, rowIDs []int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.datasets[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	rows := d.table.Len()
	seen := make(map[int]bool, len(rowIDs))
	ids := make([]int, 0, len(rowIDs))
	for _, id := range rowIDs {
		if id < 0 || id >= rows {
			return fmt.Errorf("store: delete row %d out of range (%d rows)", id, rows)
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	keep := make([]int, 0, rows-len(ids))
	ti := 0
	for r := 0; r < rows; r++ {
		if ti < len(ids) && ids[ti] == r {
			ti++
			continue
		}
		keep = append(keep, r)
	}
	sub, err := d.table.Subset(keep)
	if err != nil {
		return err
	}
	d.table = sub
	d.epochs = append(d.epochs, Epoch{OldToNew: oldToNewMap(rows, ids)})
	return nil
}

// memSnapshotWriter stages a snapshot; nothing is visible until Commit.
type memSnapshotWriter struct {
	b      *MemBackend
	name   string
	schema *dataset.Schema
	table  *dataset.Table
	chunks []ColumnChunk
	done   bool
}

// Create implements Backend.
func (b *MemBackend) Create(name string, schema *dataset.Schema) (SnapshotWriter, error) {
	if name == "" {
		return nil, fmt.Errorf("store: empty dataset name")
	}
	tbl, err := dataset.NewTable(schema)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.datasets[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if b.pending[name] {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	b.pending[name] = true
	return &memSnapshotWriter{b: b, name: name, schema: schema, table: tbl}, nil
}

func (w *memSnapshotWriter) Append(ch ColumnChunk) error {
	if w.done {
		return fmt.Errorf("store: snapshot writer already closed")
	}
	if err := validateChunk(w.schema, ch); err != nil {
		return err
	}
	if err := validateCodes(w.schema, ch, DictLens(w.table)); err != nil {
		return err
	}
	cp := copyChunk(ch)
	if err := applyChunk(w.table, cp); err != nil {
		return err
	}
	w.chunks = append(w.chunks, cp)
	return nil
}

func (w *memSnapshotWriter) Commit() error {
	if w.done {
		return fmt.Errorf("store: snapshot writer already closed")
	}
	w.done = true
	w.b.mu.Lock()
	defer w.b.mu.Unlock()
	delete(w.b.pending, w.name)
	w.b.datasets[w.name] = &memDataset{schema: w.schema, chunks: w.chunks, table: w.table}
	return nil
}

func (w *memSnapshotWriter) Close() error {
	if !w.done {
		w.done = true
		w.b.mu.Lock()
		delete(w.b.pending, w.name)
		w.b.mu.Unlock()
	}
	return nil
}

// copyChunk deep-copies a chunk so stored history cannot alias caller
// slices (Write and chunkOfRows hand out ColumnView sub-slices).
func copyChunk(ch ColumnChunk) ColumnChunk {
	out := ColumnChunk{Rows: ch.Rows, Cols: make([][]float64, len(ch.Cols))}
	for c, col := range ch.Cols {
		out.Cols[c] = append([]float64(nil), col...)
	}
	if ch.DictDelta != nil {
		out.DictDelta = make([][]string, len(ch.DictDelta))
		for c, d := range ch.DictDelta {
			out.DictDelta[c] = append([]string(nil), d...)
		}
	}
	return out
}
