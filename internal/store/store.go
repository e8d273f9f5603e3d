// Package store is the persistent columnar dataset layer under the
// anonymization engine: a Backend abstracts how dataset.Table snapshots
// and their epoch history (appends and tombstone deletions) are kept, so
// million-row tables load once, reopen without re-decoding CSV, and
// Engine.Append/Engine.Delete epochs survive a process restart.
//
// Data moves in ColumnChunks — a bounded batch of records in columnar
// form plus the dictionary labels the batch introduced — in both
// directions: the streaming CSV ingester (IngestCSV) flushes chunks under
// a memory budget instead of materializing rows, and Load rebuilds a
// table chunk by chunk from Backend.Stream through dataset.Table.ExtendDict
// and dataset.Table.AppendColumnChunk. The round trip is bit-identical —
// values (as float64 bits), dictionary label order, and the label→code
// assignment all survive — which is what lets an engine rebuilt from a
// snapshot produce byte-identical releases; the property suite pins it.
//
// Two backends ship: FileBackend, the embedded single-file-per-dataset
// persistent store (columnar segments, dictionary pages, an append-only
// epoch log, checksummed commit manifests — see file.go for the format
// and the crash-safety contract), and MemBackend, an in-memory
// implementation of the same contract for tests and ephemeral use. The
// in-memory QI matrix and EMD prefix spaces remain the hot path; the
// store only feeds and persists them.
package store

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
)

// ColumnChunk is a bounded batch of records in columnar form: one value
// slice per schema attribute (raw numerics, or categorical codes into the
// dictionary as extended by every chunk up to and including this one).
// DictDelta carries the labels this chunk introduced, per column in code
// order, so a reader replays ExtendDict(col, DictDelta[col]) before
// AppendColumnChunk(Cols) and reconstructs the exact dictionaries.
type ColumnChunk struct {
	// Rows is the number of records in the chunk.
	Rows int
	// Cols holds the values, one slice of length Rows per attribute.
	Cols [][]float64
	// DictDelta holds newly introduced dictionary labels per column (nil
	// for numeric columns and for chunks introducing none).
	DictDelta [][]string
}

// Epoch is one durable entry of a dataset's epoch log, mirroring the
// engine's own append/tombstone transitions so a reopened engine can
// replay the history it had before the restart.
type Epoch struct {
	// Appended is the number of records an append epoch added (0 for
	// deletion epochs).
	Appended int
	// OldToNew maps the previous epoch's row ids to this epoch's (-1 for
	// tombstoned rows); nil for append epochs, whose ids are stable.
	OldToNew []int
}

// SnapshotWriter streams the epoch-0 snapshot of a new dataset into a
// backend chunk by chunk. Nothing is visible to Stream/List until Commit
// returns; Close without a Commit aborts and discards the partial write.
type SnapshotWriter interface {
	// Append adds one chunk to the pending snapshot.
	Append(ch ColumnChunk) error
	// Commit finalizes the snapshot durably and registers the dataset.
	Commit() error
	// Close releases resources; called after Commit it is a no-op,
	// called before it discards the pending snapshot.
	Close() error
}

// StreamHandler receives a dataset's committed history in commit order
// during Backend.Stream. Any hook may be nil. Begin fires once, before
// any content, with the schema and the final row count (after every
// committed epoch — a preallocation hint for the table being rebuilt).
// Chunk fires for every snapshot and append-epoch chunk, Tombstone for
// every deletion epoch, interleaved exactly as committed; tombstone row
// ids are in the numbering of the epoch they were committed against,
// ascending and unique. Handlers own the chunk slices they receive. When
// Stream returns an error the handler may already have seen part of the
// history (corruption is found as the replay reaches it), so it must
// discard what it built.
type StreamHandler struct {
	Begin     func(schema *dataset.Schema, rows int) error
	Chunk     func(ch ColumnChunk) error
	Tombstone func(rowIDs []int) error
}

// Backend is a store of named columnar datasets with durable epoch
// history. Implementations must be safe for concurrent use; per-dataset
// operations (AppendEpoch, DeleteEpoch vs Stream) may be serialized
// internally.
type Backend interface {
	// Create starts streaming a new dataset's snapshot. It fails if the
	// name is taken.
	Create(name string, schema *dataset.Schema) (SnapshotWriter, error)
	// Stream replays the dataset's full committed history — chunks and
	// tombstones interleaved in commit order — and returns the replayable
	// epoch log. It is the store's only read path: Load rebuilds the table
	// through it, and it holds one chunk at a time plus whatever the
	// handler retains. See StreamHandler.
	Stream(name string, h StreamHandler) ([]Epoch, error)
	// AppendEpoch durably records an append epoch: the chunk holds the
	// appended records and any dictionary labels they introduced.
	AppendEpoch(name string, ch ColumnChunk) error
	// DeleteEpoch durably records a tombstone epoch removing the given
	// row ids (current numbering, duplicates allowed).
	DeleteEpoch(name string, rowIDs []int) error
	// List returns the committed dataset names in lexical order. An
	// implementation may return valid names alongside an advisory error
	// describing entries it could not account for (FileBackend returns a
	// *StrayFilesError); callers should use the names they got either way.
	List() ([]string, error)
	// Remove deletes a dataset and its history.
	Remove(name string) error
	// Close releases the backend's resources.
	Close() error
}

// Typed decode errors; see the crash-safety contract in file.go. Both are
// wrapped with position detail — match with errors.Is.
var (
	// ErrCorrupt reports a structurally invalid dataset file: a bad magic
	// number, a checksum mismatch, or an impossible block layout.
	ErrCorrupt = errors.New("store: corrupt dataset file")
	// ErrTruncated reports a dataset file that ends before its first
	// committed snapshot — an interrupted initial ingest, which is not
	// recoverable (a torn tail after a commit, by contrast, is silently
	// discarded as the crash-safety contract specifies).
	ErrTruncated = errors.New("store: dataset file truncated before first commit")
	// ErrUnknownDataset reports a read/append/delete of a name the
	// backend does not hold.
	ErrUnknownDataset = errors.New("store: unknown dataset")
	// ErrExists rejects Create over a name already committed or pending.
	ErrExists = errors.New("store: dataset already exists")
)

// Load materializes a dataset from its committed history: the table with
// every committed epoch applied, plus the replayable epoch log. It replays
// Backend.Stream into a table pre-grown to the final row count, applying
// each chunk's dictionary delta and values and each tombstone's deletion
// in commit order.
func Load(b Backend, name string) (*dataset.Table, []Epoch, error) {
	var l loader
	epochs, err := b.Stream(name, l.handler())
	if err != nil {
		return nil, nil, err
	}
	return l.tbl, epochs, nil
}

// loader is the replay state of Load.
type loader struct {
	tbl *dataset.Table
}

func (l *loader) handler() StreamHandler {
	return StreamHandler{Begin: l.begin, Chunk: l.chunk, Tombstone: l.tombstone}
}

func (l *loader) begin(schema *dataset.Schema, rows int) error {
	tbl, err := dataset.NewTable(schema)
	if err != nil {
		return err
	}
	tbl.Grow(rows)
	l.tbl = tbl
	return nil
}

// chunk applies one chunk. A chunk the table rejects (a duplicate
// dictionary label, a code outside the dictionary) is invalid stored data,
// not a caller mistake.
func (l *loader) chunk(ch ColumnChunk) error {
	if err := applyChunk(l.tbl, ch); err != nil {
		return corruptf("applying chunk: %v", err)
	}
	return nil
}

// tombstone drops the given rows (ascending, unique, in range — the
// StreamHandler contract).
func (l *loader) tombstone(ids []int) error {
	keep := make([]int, 0, l.tbl.Len()-len(ids))
	ti := 0
	for r := 0; r < l.tbl.Len(); r++ {
		if ti < len(ids) && ids[ti] == r {
			ti++
			continue
		}
		keep = append(keep, r)
	}
	sub, err := l.tbl.Subset(keep)
	if err != nil {
		return err
	}
	l.tbl = sub
	return nil
}

// Write snapshots an in-memory table into the backend under name, in
// chunks of writeChunkRows records, and commits. It is the non-streaming
// counterpart of IngestCSV for tables that already live in memory
// (synthetic generators, HTTP uploads already decoded).
func Write(b Backend, name string, t *dataset.Table) error {
	w, err := b.Create(name, t.Schema())
	if err != nil {
		return err
	}
	defer w.Close()
	width := t.Width()
	dictDelta := make([][]string, width)
	for c := 0; c < width; c++ {
		if d := t.Dict(c); len(d) > 0 {
			dictDelta[c] = d
		}
	}
	for lo := 0; lo < t.Len() || lo == 0; lo += writeChunkRows {
		hi := lo + writeChunkRows
		if hi > t.Len() {
			hi = t.Len()
		}
		ch := ColumnChunk{Rows: hi - lo, Cols: make([][]float64, width), DictDelta: dictDelta}
		for c := 0; c < width; c++ {
			ch.Cols[c] = t.ColumnView(c)[lo:hi]
		}
		if err := w.Append(ch); err != nil {
			return err
		}
		dictDelta = nil // dictionaries ride the first chunk only
		if hi == t.Len() {
			break
		}
	}
	return w.Commit()
}

// writeChunkRows is the chunk granularity of Write: large enough that
// per-chunk framing overhead vanishes, small enough that readers stream.
const writeChunkRows = 1 << 16

// applyChunk replays one chunk onto a table: dictionary deltas first,
// then the bulk column append.
func applyChunk(t *dataset.Table, ch ColumnChunk) error {
	for c, delta := range ch.DictDelta {
		if len(delta) == 0 {
			continue
		}
		if err := t.ExtendDict(c, delta); err != nil {
			return err
		}
	}
	if ch.Rows == 0 {
		return nil
	}
	return t.AppendColumnChunk(ch.Cols)
}

// chunkOfRows converts validated row values (the engine's Append input,
// already applied to table) back into the columnar epoch chunk covering
// table rows [from, table.Len()), with dictionary deltas relative to
// prevDictLens. It is how a store-bound engine persists an append epoch
// without re-encoding values.
func chunkOfRows(t *dataset.Table, from int, prevDictLens []int) ColumnChunk {
	width := t.Width()
	ch := ColumnChunk{Rows: t.Len() - from, Cols: make([][]float64, width)}
	for c := 0; c < width; c++ {
		ch.Cols[c] = t.ColumnView(c)[from:]
		if n := t.DictLen(c); prevDictLens != nil && n > prevDictLens[c] {
			if ch.DictDelta == nil {
				ch.DictDelta = make([][]string, width)
			}
			ch.DictDelta[c] = t.Dict(c)[prevDictLens[c]:]
		}
	}
	return ch
}

// AppendRows encodes the tail of an already-extended table as an epoch
// chunk and records it durably: table holds the post-append state, from
// is the pre-append length, prevDictLens the pre-append dictionary sizes
// (nil when no categorical column exists). See chunkOfRows.
func AppendRows(b Backend, name string, t *dataset.Table, from int, prevDictLens []int) error {
	return b.AppendEpoch(name, chunkOfRows(t, from, prevDictLens))
}

// DictLens returns the current dictionary length of every column — the
// "before" frame AppendRows needs to compute a delta.
func DictLens(t *dataset.Table) []int {
	out := make([]int, t.Width())
	for c := range out {
		out[c] = t.DictLen(c)
	}
	return out
}

// validateChunk sanity-checks a chunk against a schema before it is
// written: width, equal column lengths, and dictionary deltas only on
// categorical columns. Code-range validation happens on replay (the
// reader's table enforces it); this keeps writers from persisting
// structurally impossible chunks.
func validateChunk(schema *dataset.Schema, ch ColumnChunk) error {
	if len(ch.Cols) != schema.Len() {
		return fmt.Errorf("store: chunk has %d columns, schema has %d", len(ch.Cols), schema.Len())
	}
	for c, col := range ch.Cols {
		if len(col) != ch.Rows {
			return fmt.Errorf("store: chunk column %d has %d values, want %d", c, len(col), ch.Rows)
		}
	}
	if ch.DictDelta != nil && len(ch.DictDelta) != schema.Len() {
		return fmt.Errorf("store: chunk dict delta has %d columns, schema has %d", len(ch.DictDelta), schema.Len())
	}
	for c, delta := range ch.DictDelta {
		if len(delta) > 0 && schema.Attr(c).Kind != dataset.Categorical {
			return fmt.Errorf("store: dict delta on numeric column %d", c)
		}
	}
	return nil
}
