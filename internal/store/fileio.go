package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/dataset"
)

// replayHooks receive committed content during a file replay. Any hook
// may be nil; begin fires once the schema block is decoded, with the row
// count after the last commit, chunk sees snapshot and append chunks in
// commit order, tomb sees each deletion epoch's removed row ids (in the
// numbering of the epoch it was committed against, ascending, unique).
type replayHooks struct {
	begin func(schema *dataset.Schema, rows int) error
	chunk func(ch ColumnChunk) error
	tomb  func(rowIDs []int) error
}

// corruptf wraps ErrCorrupt with position detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// readBlock reads one block from r into *buf, growing it when the payload
// does not fit, and returns the payload as a slice of it: the next call
// overwrites it, so callers copy whatever they keep. remain is how many
// bytes the file still holds, so a length field claiming more than the
// file can contain fails as a truncated block before allocating anything.
// It returns io.EOF at a clean block boundary, io.ErrUnexpectedEOF when
// the file ends mid-block, and ErrCorrupt on a checksum mismatch or
// impossible length.
func readBlock(r *bufio.Reader, remain int64, buf *[]byte) (kind byte, payload []byte, size int64, err error) {
	kind, err = r.ReadByte()
	if err == io.EOF {
		return 0, nil, 0, io.EOF
	}
	if err != nil {
		return 0, nil, 0, err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxBlockLen {
		return 0, nil, 0, corruptf("block length %d exceeds limit", n)
	}
	if int64(n) > remain-(1+4+4) {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	payload = (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	want := binary.LittleEndian.Uint32(crcb[:])
	got := crc32.Update(crc32.Checksum([]byte{kind}, crcTable), crcTable, payload)
	if got != want {
		return 0, nil, 0, corruptf("block checksum mismatch (kind %d, %d bytes)", kind, n)
	}
	return kind, payload, int64(1) + 4 + int64(n) + 4, nil
}

// committed describes the committed region of a dataset file, as
// scanValid finds it.
type committed struct {
	// end is the end offset of the last commit block.
	end int64
	// rows is the total row count the last commit declares, capped at
	// what the committed segments can hold — the replay checks the
	// declared count only when it reaches that commit, and Begin hands
	// rows on as a preallocation hint.
	rows int
}

// scanValid walks the whole file verifying framing and checksums, and
// returns the committed region replayCommitted is allowed to decode. A
// torn tail (truncation after at least one commit) is tolerated per the
// crash-safety contract; a file with no commit at all is ErrTruncated; a
// checksum mismatch anywhere is ErrCorrupt.
func scanValid(r io.Reader, fileSize int64) (committed, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [len(magic)]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return committed{}, fmt.Errorf("%w: missing header", ErrTruncated)
	}
	if string(m[:]) != magic {
		return committed{}, corruptf("bad magic %q", m[:])
	}
	off := int64(len(magic))
	var (
		last   committed
		width  uint64 // attribute count of the schema block
		values uint64 // segment values so far, an upper bound on rows·width
		buf    []byte
	)
	for {
		kind, payload, size, err := readBlock(br, fileSize-off, &buf)
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			if last.end == 0 {
				return committed{}, ErrTruncated
			}
			return last, nil
		case err != nil:
			return committed{}, err
		}
		off += size
		pr := payloadReader{b: payload}
		switch kind {
		case kindSchema:
			width = uint64(pr.u32())
		case kindSegment:
			values += uint64(len(payload)) / 8
		case kindCommit:
			pr.u8()
			pr.u32()
			last.end, last.rows = off, 0
			if width > 0 {
				last.rows = int(min(pr.u64(), values/width))
			}
		}
	}
}

// replayState is the pass-2 decoder: it walks the committed region,
// enforces the epoch structure, rebuilds the write-side state, and feeds
// the hooks.
type replayState struct {
	fileState
	hooks     replayHooks
	beginRows int // row count handed to hooks.begin
	commits   int // commit blocks decoded so far (snapshot included)

	// staging for the epoch under assembly.
	pendingDict [][]string
	pendingSegs [][]float64
	pendingTomb []int
	hasTomb     bool
	epochRows   int // rows applied since the last commit
}

func (rs *replayState) width() int { return rs.schema.Len() }

func (rs *replayState) onSchema(p []byte) error {
	if rs.schema != nil {
		return corruptf("duplicate schema block")
	}
	r := payloadReader{b: p}
	n := int(r.u32())
	if r.bad || n <= 0 || n > 1<<20 {
		return corruptf("schema attribute count %d", n)
	}
	attrs := make([]dataset.Attribute, 0, n)
	for i := 0; i < n; i++ {
		name := r.str()
		role, kind := r.u8(), r.u8()
		if r.bad {
			return corruptf("schema block short at attribute %d", i)
		}
		if role > byte(dataset.NonConfidential) || kind > byte(dataset.Categorical) {
			return corruptf("attribute %q has role %d kind %d", name, role, kind)
		}
		attrs = append(attrs, dataset.Attribute{
			Name: name, Role: dataset.Role(role), Kind: dataset.Kind(kind),
		})
	}
	if !r.done() {
		return corruptf("schema block has trailing bytes")
	}
	schema, err := dataset.NewSchema(attrs...)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	rs.schema = schema
	rs.dictLens = make([]int, schema.Len())
	if rs.hooks.begin != nil {
		return rs.hooks.begin(schema, rs.beginRows)
	}
	return nil
}

func (rs *replayState) onDict(p []byte) error {
	if rs.schema == nil {
		return corruptf("dictionary page before schema")
	}
	if len(rs.pendingSegs) > 0 || rs.hasTomb {
		return corruptf("dictionary page inside a chunk or deletion epoch")
	}
	r := payloadReader{b: p}
	col, n := int(r.u32()), int(r.u32())
	if r.bad || col < 0 || col >= rs.width() {
		return corruptf("dictionary page column %d", col)
	}
	if rs.schema.Attr(col).Kind != dataset.Categorical {
		return corruptf("dictionary page on numeric column %d", col)
	}
	labels := make([]string, 0, min(n, 1<<16))
	for i := 0; i < n; i++ {
		labels = append(labels, r.str())
	}
	if !r.done() {
		return corruptf("dictionary page malformed")
	}
	if rs.pendingDict == nil {
		rs.pendingDict = make([][]string, rs.width())
	}
	rs.pendingDict[col] = append(rs.pendingDict[col], labels...)
	rs.dictLens[col] += len(labels)
	return nil
}

func (rs *replayState) onSegment(p []byte) error {
	if rs.schema == nil {
		return corruptf("segment before schema")
	}
	if rs.hasTomb {
		return corruptf("segment inside a deletion epoch")
	}
	r := payloadReader{b: p}
	col, n := int(r.u32()), int(r.u32())
	if r.bad || col != len(rs.pendingSegs) || col >= rs.width() {
		return corruptf("segment for column %d, expected column %d", col, len(rs.pendingSegs))
	}
	if int64(len(p)) != 8+8*int64(n) {
		return corruptf("segment of column %d declares %d rows in %d bytes", col, n, len(p))
	}
	if col > 0 && n != len(rs.pendingSegs[0]) {
		return corruptf("segment of column %d has %d rows, chunk has %d", col, n, len(rs.pendingSegs[0]))
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(r.u64())
	}
	rs.pendingSegs = append(rs.pendingSegs, vals)
	if len(rs.pendingSegs) == rs.width() {
		return rs.finishChunk()
	}
	return nil
}

// finishChunk seals the staged chunk and delivers it.
func (rs *replayState) finishChunk() error {
	ch := ColumnChunk{Rows: len(rs.pendingSegs[0]), Cols: rs.pendingSegs, DictDelta: rs.pendingDict}
	rs.pendingSegs, rs.pendingDict = nil, nil
	rs.rows += ch.Rows
	rs.epochRows += ch.Rows
	if rs.hooks.chunk != nil {
		if err := rs.hooks.chunk(ch); err != nil {
			return err
		}
	}
	return nil
}

func (rs *replayState) onTombstone(p []byte) error {
	if rs.schema == nil {
		return corruptf("tombstone before schema")
	}
	if len(rs.pendingSegs) > 0 || rs.pendingDict != nil || rs.hasTomb {
		return corruptf("tombstone inside a chunk or duplicated")
	}
	r := payloadReader{b: p}
	n := int(r.u32())
	if r.bad || int64(len(p)) != 4+4*int64(n) {
		return corruptf("tombstone declares %d ids in %d bytes", n, len(p))
	}
	ids := make([]int, n)
	prev := -1
	for i := range ids {
		id := int(r.u32())
		if id <= prev || id >= rs.rows {
			return corruptf("tombstone id %d out of order or range (rows %d)", id, rs.rows)
		}
		ids[i], prev = id, id
	}
	rs.pendingTomb, rs.hasTomb = ids, true
	return nil
}

func (rs *replayState) onCommit(p []byte) error {
	if rs.schema == nil {
		return corruptf("commit before schema")
	}
	if len(rs.pendingSegs) > 0 {
		return corruptf("commit with a partial chunk staged")
	}
	if rs.pendingDict != nil {
		return corruptf("commit with dictionary pages but no segments")
	}
	r := payloadReader{b: p}
	ekind := r.u8()
	epoch := int(r.u32())
	totalRows, deltaRows := r.u64(), r.u64()
	r.u64() // manifest digest; verified against the rolling state by the caller
	if r.bad || !r.done() {
		return corruptf("commit block malformed")
	}
	if rs.commits == 0 {
		if ekind != epochSnapshot || epoch != 0 {
			return corruptf("first commit must be snapshot epoch 0 (kind %d, epoch %d)", ekind, epoch)
		}
	} else {
		if ekind != epochAppend && ekind != epochDelete {
			return corruptf("commit kind %d after the snapshot", ekind)
		}
		if epoch != rs.epoch+1 {
			return corruptf("epoch %d after epoch %d", epoch, rs.epoch)
		}
	}
	switch ekind {
	case epochSnapshot, epochAppend:
		if rs.hasTomb {
			return corruptf("append commit with a tombstone staged")
		}
		if int(deltaRows) != rs.epochRows {
			return corruptf("commit declares %d new rows, epoch staged %d", deltaRows, rs.epochRows)
		}
		if ekind == epochAppend {
			rs.epoch = epoch
			rs.epochs = append(rs.epochs, Epoch{Appended: rs.epochRows})
		}
	case epochDelete:
		if !rs.hasTomb || rs.epochRows != 0 {
			return corruptf("delete commit without exactly one tombstone")
		}
		oldToNew := oldToNewMap(rs.rows, rs.pendingTomb)
		if rs.hooks.tomb != nil {
			if err := rs.hooks.tomb(rs.pendingTomb); err != nil {
				return err
			}
		}
		rs.rows -= len(rs.pendingTomb)
		rs.epoch = epoch
		rs.epochs = append(rs.epochs, Epoch{OldToNew: oldToNew})
		rs.pendingTomb, rs.hasTomb = nil, false
	}
	if int(totalRows) != rs.rows {
		return corruptf("commit declares %d total rows, replay has %d", totalRows, rs.rows)
	}
	rs.epochRows = 0
	rs.commits++
	return nil
}

// load opens a dataset file, finds its committed region and replays it
// through hooks, returning freshly rebuilt write-side state: one scan and
// one replay. The scan runs first, so a torn tail never reaches a hook.
func (b *FileBackend) load(name string, hooks replayHooks) (*fileState, error) {
	path := b.path(name)
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
		}
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	region, err := scanValid(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	st, err := replayCommitted(f, region, hooks)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

// replayCommitted decodes exactly the committed region of src, which
// scanValid has already checksum-verified.
func replayCommitted(src io.Reader, region committed, hooks replayHooks) (*fileState, error) {
	br := bufio.NewReaderSize(src, 1<<16)
	var m [len(magic)]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	rs := &replayState{hooks: hooks, beginRows: region.rows}
	validEnd := region.end
	off := int64(len(magic))
	var buf []byte
	for off < validEnd {
		kind, payload, size, err := readBlock(br, validEnd-off, &buf)
		if err != nil {
			return nil, corruptf("committed region unreadable at offset %d: %v", off, err)
		}
		off += size
		if off > validEnd {
			return nil, corruptf("block crosses the committed boundary")
		}
		if kind == kindCommit {
			// The manifest digest attests every block before this commit.
			pr := payloadReader{b: payload}
			pr.u8()
			pr.u32()
			pr.u64()
			pr.u64()
			if manifest := pr.u64(); !pr.bad && manifest != rs.rolling {
				return nil, corruptf("commit manifest digest mismatch before offset %d", off)
			}
		}
		blockCRC := crc32.Update(crc32.Checksum([]byte{kind}, crcTable), crcTable, payload)
		switch kind {
		case kindSchema:
			err = rs.onSchema(payload)
		case kindDict:
			err = rs.onDict(payload)
		case kindSegment:
			err = rs.onSegment(payload)
		case kindTombstone:
			err = rs.onTombstone(payload)
		case kindCommit:
			err = rs.onCommit(payload)
		default:
			err = corruptf("unknown block kind %d", kind)
		}
		if err != nil {
			return nil, err
		}
		rs.rolling = rollCRC(rs.rolling, blockCRC)
	}
	if rs.schema == nil || rs.commits == 0 {
		return nil, ErrTruncated
	}
	return &rs.fileState, nil
}
