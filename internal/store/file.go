package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/dataset"
)

// File format
//
// A FileBackend keeps one file per dataset, <escaped-name>.tcs, as an
// append-only log of checksummed blocks:
//
//	file  := magic block*
//	magic := "TCSTOR01" (8 bytes)
//	block := kind u8 | len u32 | payload[len] | crc32c(kind ‖ payload) u32
//
// All integers are little-endian; floats travel as their IEEE-754 bits, so
// values round-trip exactly (including -0 and the bit patterns of NaNs).
// Block kinds:
//
//	schema    (1): attribute count, then (name, role, kind) per attribute.
//	            Always the first block of a file.
//	dict      (2): column index + labels newly appended to that column's
//	            dictionary, in code order — a dictionary page.
//	segment   (3): column index + the column's values for one chunk of
//	            rows — a columnar segment. A chunk is written as its
//	            dictionary pages followed by one segment per column in
//	            schema order, all with the same row count.
//	tombstone (4): row ids (current numbering) removed by a deletion epoch.
//	commit    (5): the epoch manifest — epoch kind (snapshot/append/
//	            delete), epoch number, total rows after the epoch, rows
//	            added by it, and a rolling FNV-64a digest of every prior
//	            block's CRC. A commit makes everything before it durable
//	            and attested: replay verifies the digest, so blocks
//	            cannot be dropped, reordered or spliced between commits
//	            without detection.
//
// Crash-safety contract: an epoch's blocks are staged in one buffered
// write and fsynced before AppendEpoch/DeleteEpoch/Commit returns, so a
// committed epoch survives SIGKILL. A crash mid-epoch leaves a torn tail —
// complete or truncated blocks after the last commit — which replay
// silently discards, reopening at the last committed epoch. A checksum
// mismatch or impossible structure anywhere in the committed region is
// *corruption*, not a crash artifact, and fails Stream (and so Load) with
// ErrCorrupt; a file that ends before its first commit fails with
// ErrTruncated. The decoder never panics on hostile input (fuzzed by
// FuzzFileDecode through the handler Load replays with).
const magic = "TCSTOR01"

const (
	kindSchema    byte = 1
	kindDict      byte = 2
	kindSegment   byte = 3
	kindTombstone byte = 4
	kindCommit    byte = 5

	epochSnapshot byte = 0
	epochAppend   byte = 1
	epochDelete   byte = 2

	// maxBlockLen bounds a single block's payload; anything larger is
	// structurally impossible for the writers here and rejected before
	// allocation when decoding.
	maxBlockLen = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FileBackend is the embedded persistent Backend: one append-only
// columnar file per dataset under a root directory. Safe for concurrent
// use; operations on one dataset are serialized.
type FileBackend struct {
	dir string

	mu     sync.Mutex
	states map[string]*fileState // decoded write-side state per dataset
	tmps   map[string]bool       // names with a Create in flight
}

// fileState is the decoded write-side state of one dataset — everything
// AppendEpoch/DeleteEpoch need without materializing the table.
type fileState struct {
	mu       sync.Mutex
	schema   *dataset.Schema
	rows     int
	epoch    int
	dictLens []int
	rolling  uint64 // manifest digest over every block written so far
}

// NewFileBackend opens (creating if needed) the file store rooted at dir.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileBackend{dir: dir, states: make(map[string]*fileState), tmps: make(map[string]bool)}, nil
}

// Dir returns the backend's root directory.
func (b *FileBackend) Dir() string { return b.dir }

// Close implements Backend. The file backend holds no long-lived handles.
func (b *FileBackend) Close() error { return nil }

func (b *FileBackend) path(name string) string {
	return filepath.Join(b.dir, url.PathEscape(name)+".tcs")
}

// StrayFilesError reports .tcs entries in the data directory whose names
// this backend cannot account for (the dataset-name unescape fails) —
// data-dir corruption, foreign files, or a renamed dataset file. List
// returns it *alongside* the valid names so callers can keep serving
// what is intact while surfacing what is not; match with errors.As.
type StrayFilesError struct {
	// Files holds the stray file names (base names, not paths).
	Files []string
}

func (e *StrayFilesError) Error() string {
	return fmt.Sprintf("store: %d stray .tcs file(s) in data dir not written by this backend: %s",
		len(e.Files), strings.Join(e.Files, ", "))
}

// List returns the committed dataset names (files are only renamed into
// place at snapshot commit, so every .tcs file is a committed dataset).
// When the directory also holds .tcs files this backend cannot have
// written, the names are still returned and the error is a
// *StrayFilesError describing the strays — they are surfaced, never
// silently dropped.
func (b *FileBackend) List() ([]string, error) {
	ents, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var names, strays []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".tcs") {
			continue
		}
		name, err := url.PathUnescape(strings.TrimSuffix(e.Name(), ".tcs"))
		if err != nil {
			strays = append(strays, e.Name())
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(strays) > 0 {
		return names, &StrayFilesError{Files: strays}
	}
	return names, nil
}

// Remove deletes a dataset file and forgets its state.
func (b *FileBackend) Remove(name string) error {
	b.mu.Lock()
	delete(b.states, name)
	b.mu.Unlock()
	if err := os.Remove(b.path(name)); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
		}
		return err
	}
	return nil
}

// --- encoding helpers ---

// blockBuf assembles blocks into one write buffer, tracking the rolling
// manifest digest as each block is sealed.
type blockBuf struct {
	buf     []byte
	rolling uint64
}

func newBlockBuf(rolling uint64) *blockBuf { return &blockBuf{rolling: rolling} }

func (w *blockBuf) block(kind byte, payload []byte) {
	crc := crc32.Update(crc32.Checksum([]byte{kind}, crcTable), crcTable, payload)
	w.buf = append(w.buf, kind)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(payload)))
	w.buf = append(w.buf, payload...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc)
	w.rolling = rollCRC(w.rolling, crc)
}

// rollCRC folds one block CRC into the manifest digest (FNV-64a step).
func rollCRC(rolling uint64, crc uint32) uint64 {
	h := fnv.New64a()
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:8], rolling)
	binary.LittleEndian.PutUint32(b[8:], crc)
	h.Write(b[:])
	return h.Sum64()
}

func schemaPayload(s *dataset.Schema) []byte {
	var p []byte
	p = binary.LittleEndian.AppendUint32(p, uint32(s.Len()))
	for i := 0; i < s.Len(); i++ {
		a := s.Attr(i)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(a.Name)))
		p = append(p, a.Name...)
		p = append(p, byte(a.Role), byte(a.Kind))
	}
	return p
}

func dictPayload(col int, labels []string) []byte {
	var p []byte
	p = binary.LittleEndian.AppendUint32(p, uint32(col))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(labels)))
	for _, l := range labels {
		p = binary.LittleEndian.AppendUint32(p, uint32(len(l)))
		p = append(p, l...)
	}
	return p
}

func segmentPayload(col int, vals []float64) []byte {
	p := make([]byte, 0, 8+8*len(vals))
	p = binary.LittleEndian.AppendUint32(p, uint32(col))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(vals)))
	for _, v := range vals {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
	}
	return p
}

func tombstonePayload(rowIDs []int) []byte {
	p := make([]byte, 0, 4+4*len(rowIDs))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(rowIDs)))
	for _, r := range rowIDs {
		p = binary.LittleEndian.AppendUint32(p, uint32(r))
	}
	return p
}

func commitPayload(epochKind byte, epoch, totalRows, deltaRows int, manifest uint64) []byte {
	var p []byte
	p = append(p, epochKind)
	p = binary.LittleEndian.AppendUint32(p, uint32(epoch))
	p = binary.LittleEndian.AppendUint64(p, uint64(totalRows))
	p = binary.LittleEndian.AppendUint64(p, uint64(deltaRows))
	p = binary.LittleEndian.AppendUint64(p, manifest)
	return p
}

// chunkBlocks writes one chunk as dictionary pages then per-column
// segments in schema order.
func chunkBlocks(w *blockBuf, ch ColumnChunk) {
	for c, delta := range ch.DictDelta {
		if len(delta) > 0 {
			w.block(kindDict, dictPayload(c, delta))
		}
	}
	for c, col := range ch.Cols {
		w.block(kindSegment, segmentPayload(c, col))
	}
}

// --- decoding helpers ---

// payloadReader decodes a block payload with saturating bounds checks; a
// short or oversized payload surfaces as ErrCorrupt from done().
type payloadReader struct {
	b   []byte
	off int
	bad bool
}

func (r *payloadReader) u8() byte {
	if r.off+1 > len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *payloadReader) u32() uint32 {
	if r.off+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *payloadReader) u64() uint64 {
	if r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *payloadReader) str() string {
	n := int(r.u32())
	if r.bad || n < 0 || r.off+n > len(r.b) {
		r.bad = true
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *payloadReader) done() bool { return !r.bad && r.off == len(r.b) }
