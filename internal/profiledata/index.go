package profiledata

// Block index footer (v3 extension).
//
// An indexed recording carries, after the body's zero-count terminator, a
// footer describing every block: its absolute file offset, sample count,
// time range, and the decoder seed state (the running time/addr/latency
// deltas as they stood before the block). The footer is discovered from the
// end of the file by a trailing magic, so it is invisible to streaming
// readers — they stop at the terminator and never reach it — and absent
// from CSV and compressed recordings:
//
//	footer:  payload, uint64 LE payload length, magic "DRBWIDX1" or
//	         "DRBWIDX2"
//	payload: uvarint entry count, then per entry:
//	         uvarint offset delta from the previous entry (first absolute),
//	         uvarint sample count,
//	         zigzag varint decoder prevTime,
//	         uvarint decoder prevAddr,
//	         zigzag varint decoder prevLat,
//	         min time float64 LE, max time float64 LE,
//	         (DRBWIDX2 only) block payload checksum uint64 LE
//
// The seed state is what makes blocks independently decodable: v3 columns
// delta-encode across block boundaries, so a reader seeked to block i can
// only invert the deltas if it knows where the encoder's running state
// stood. With it, any contiguous block range decodes to exactly the same
// samples a front-to-back read would produce, which is the foundation of
// the shard-parallel analysis path.
//
// DRBWIDX2 appends one fixed-width field per entry: a CRC-64 (ECMA) of the
// block's payload bytes, computed at encode time. It buys two things: range
// readers verify each block they decode against it, and the whole
// recording's content can be fingerprinted from the index alone — header
// fields plus per-block counts and checksums — in O(index bytes) instead of
// rehashing the file (see FileFingerprint). The writer always emits
// DRBWIDX2 now; this reader accepts both versions (a DRBWIDX1 footer simply
// has no checksums to verify or fingerprint from), and readers that predate
// DRBWIDX2 see an unknown trailing magic, report ErrNoIndex, and fall back
// to the streaming path — correct results, just no block fan-out. Streaming
// readers themselves stop at the body terminator and never parse either
// footer.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"

	"drbw/internal/cache"
)

// indexMagic closes every DRBWIDX1 recording (no per-block checksums).
// Distinct from binaryMagic so a truncated file can never present a stale
// footer as a header or vice versa.
const indexMagic = "DRBWIDX1"

// indexMagicV2 closes every checksummed recording — what the writer emits.
// Same length as indexMagic, so one trailer read resolves either version.
const indexMagicV2 = "DRBWIDX2"

// indexTailLen is the fixed-size trailer: uint64 payload length + magic.
const indexTailLen = 8 + len(indexMagic)

// minIndexEntryLen is the narrowest possible encoded DRBWIDX1 entry (five
// one-byte varints plus two float64 times), bounding the entry count a
// footer can plausibly claim; DRBWIDX2 entries add a fixed 8-byte checksum.
const minIndexEntryLen = 5 + 16

const minIndexEntryLenV2 = minIndexEntryLen + 8

// ErrNoIndex reports that a recording carries no block index footer — it is
// CSV, compressed, written without BinaryOptions.Index, or truncated before
// the trailing magic. Callers fall back to the streaming reader.
var ErrNoIndex = errors.New("profiledata: recording has no block index")

// IndexEntry describes one block of an indexed recording.
type IndexEntry struct {
	// Offset is the block's absolute file offset (its count uvarint).
	Offset int64
	// Count is the block's sample count.
	Count int
	// MinTime and MaxTime bound the block's sample times.
	MinTime, MaxTime float64
	// PrevTime, PrevAddr and PrevLat seed the block decoder with the
	// running deltas as they stood before this block.
	PrevTime int64
	PrevAddr uint64
	PrevLat  int64
	// Sum is the CRC-64 (ECMA) of the block's payload bytes. Only
	// meaningful when the index carries checksums (BlockIndex.HasSums);
	// zero otherwise.
	Sum uint64
}

// BlockIndex is a recording's decoded block index.
type BlockIndex struct {
	Entries []IndexEntry
	// DataEnd is the file offset of the body terminator — one past the last
	// block's final byte.
	DataEnd int64
	// HasSums reports a DRBWIDX2 footer: every entry carries a payload
	// checksum, range reads verify against it, and the recording can be
	// fingerprinted from the index alone.
	HasSums bool
}

// blockSumTable is the CRC-64 polynomial the per-block checksums use.
var blockSumTable = crc64.MakeTable(crc64.ECMA)

// blockChecksum is the DRBWIDX2 per-block payload checksum.
func blockChecksum(payload []byte) uint64 {
	return crc64.Checksum(payload, blockSumTable)
}

// writeBlockIndex appends the checksummed (DRBWIDX2) index footer.
func writeBlockIndex(w *bufio.Writer, entries []IndexEntry) error {
	return writeBlockIndexVersioned(w, entries, true)
}

// WriteBlockIndex appends a checksummed (DRBWIDX2) block index footer to w
// — the writing half of ReadBlockIndex, for tools and tests that rebuild or
// rewrite footers on an existing body. WriteSamplesBinary emits the same
// footer for every indexed recording it writes; entries it did not compute
// itself are the caller's responsibility to keep truthful (the single-pass
// analysis cross-checks them against the decoded samples).
func WriteBlockIndex(w io.Writer, entries []IndexEntry) error {
	bw := bufio.NewWriter(w)
	if err := writeBlockIndex(bw, entries); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("profiledata: writing block index: %w", err)
	}
	return nil
}

// writeBlockIndexVersioned writes either footer version. The DRBWIDX1 form
// exists for compatibility tests — the writer proper always emits DRBWIDX2.
func writeBlockIndexVersioned(w *bufio.Writer, entries []IndexEntry, withSums bool) error {
	var payload []byte
	var v8 [binary.MaxVarintLen64]byte
	putUvarint := func(u uint64) {
		n := binary.PutUvarint(v8[:], u)
		payload = append(payload, v8[:n]...)
	}
	putFloat := func(f float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		payload = append(payload, b[:]...)
	}
	putUvarint(uint64(len(entries)))
	prevOff := int64(0)
	for _, e := range entries {
		putUvarint(uint64(e.Offset - prevOff))
		prevOff = e.Offset
		putUvarint(uint64(e.Count))
		putUvarint(zigzag(e.PrevTime))
		putUvarint(e.PrevAddr)
		putUvarint(zigzag(e.PrevLat))
		putFloat(e.MinTime)
		putFloat(e.MaxTime)
		if withSums {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], e.Sum)
			payload = append(payload, b[:]...)
		}
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("profiledata: writing block index: %w", err)
	}
	magic := indexMagic
	if withSums {
		magic = indexMagicV2
	}
	var tail [indexTailLen]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(len(payload)))
	copy(tail[8:], magic)
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("profiledata: writing block index: %w", err)
	}
	return nil
}

// ReadBlockIndex parses the block index footer of a recording of the given
// size. It returns ErrNoIndex when no trailing magic is present, and a
// descriptive error when a footer is present but does not validate: every
// structural invariant a forged or damaged footer could break — offsets out
// of order or out of bounds, implausible counts, inverted time ranges — is
// rejected here rather than trusted by the range readers.
func ReadBlockIndex(r io.ReaderAt, size int64) (*BlockIndex, error) {
	// The smallest indexed file: header (magic + version + flags + weight +
	// count + empty-ish dictionary), terminator, empty payload, tail.
	if size < int64(len(binaryMagic))+20+1+int64(indexTailLen) {
		return nil, ErrNoIndex
	}
	var tail [indexTailLen]byte
	if _, err := r.ReadAt(tail[:], size-int64(indexTailLen)); err != nil {
		return nil, fmt.Errorf("profiledata: reading index trailer: %w", corruptEOF(err))
	}
	hasSums := false
	entryLen := int64(minIndexEntryLen)
	switch string(tail[8:]) {
	case indexMagic:
	case indexMagicV2:
		hasSums = true
		entryLen = minIndexEntryLenV2
	default:
		return nil, ErrNoIndex
	}
	plen := binary.LittleEndian.Uint64(tail[:8])
	dataEnd := size - int64(indexTailLen) - 1 - int64(plen)
	if int64(plen) < 1 || dataEnd <= int64(len(binaryMagic)) {
		return nil, fmt.Errorf("profiledata: block index payload of %d bytes does not fit a %d-byte recording", plen, size)
	}
	payload := make([]byte, plen)
	if _, err := r.ReadAt(payload, size-int64(indexTailLen)-int64(plen)); err != nil {
		return nil, fmt.Errorf("profiledata: reading block index: %w", corruptEOF(err))
	}

	p := payloadReader{buf: payload}
	n, err := p.uvarint()
	if err != nil {
		return nil, fmt.Errorf("profiledata: corrupt block index: %w", err)
	}
	if n > plen/uint64(entryLen) {
		return nil, fmt.Errorf("profiledata: block index claims %d entries in %d bytes", n, plen)
	}
	idx := &BlockIndex{Entries: make([]IndexEntry, 0, n), DataEnd: dataEnd, HasSums: hasSums}
	prevOff := int64(0)
	for i := uint64(0); i < n; i++ {
		var e IndexEntry
		var u [5]uint64
		for j := range u {
			if u[j], err = p.uvarint(); err != nil {
				return nil, fmt.Errorf("profiledata: corrupt block index: %w", err)
			}
		}
		e.Offset = prevOff + int64(u[0])
		e.Count = int(u[1])
		e.PrevTime = unzigzag(u[2])
		e.PrevAddr = u[3]
		e.PrevLat = unzigzag(u[4])
		if e.MinTime, err = p.float(); err != nil {
			return nil, fmt.Errorf("profiledata: corrupt block index: %w", err)
		}
		if e.MaxTime, err = p.float(); err != nil {
			return nil, fmt.Errorf("profiledata: corrupt block index: %w", err)
		}
		if hasSums {
			if e.Sum, err = p.fixed64(); err != nil {
				return nil, fmt.Errorf("profiledata: corrupt block index: %w", err)
			}
		}
		if e.Offset <= prevOff && i > 0 || e.Offset >= dataEnd || e.Offset <= int64(len(binaryMagic)) {
			return nil, fmt.Errorf("profiledata: block index entry %d has offset %d outside (%d, %d)", i, e.Offset, prevOff, dataEnd)
		}
		if e.Count <= 0 || e.Count > maxBlockSamples {
			return nil, fmt.Errorf("profiledata: block index entry %d claims %d samples (limit %d)", i, e.Count, maxBlockSamples)
		}
		if !(e.MinTime <= e.MaxTime) {
			return nil, fmt.Errorf("profiledata: block index entry %d has inverted time range [%v, %v]", i, e.MinTime, e.MaxTime)
		}
		if i > 0 {
			prev := &idx.Entries[len(idx.Entries)-1]
			if span := e.Offset - prev.Offset; span > int64(prev.Count)*maxSampleEncoded+2*binary.MaxVarintLen64 {
				return nil, fmt.Errorf("profiledata: block index entry %d spans %d bytes for %d samples", i-1, span, prev.Count)
			}
		}
		prevOff = e.Offset
		idx.Entries = append(idx.Entries, e)
	}
	if p.pos != len(p.buf) {
		return nil, fmt.Errorf("profiledata: %d trailing bytes in block index", len(p.buf)-p.pos)
	}
	if len(idx.Entries) > 0 {
		last := &idx.Entries[len(idx.Entries)-1]
		if span := dataEnd - last.Offset; span > int64(last.Count)*maxSampleEncoded+2*binary.MaxVarintLen64 {
			return nil, fmt.Errorf("profiledata: final block index entry spans %d bytes for %d samples", span, last.Count)
		}
	}
	return idx, nil
}

// fixed64 reads a fixed-width little-endian uint64 (the DRBWIDX2 checksum
// field — varints would cost more than they save on hash-distributed bits).
func (p *payloadReader) fixed64() (uint64, error) {
	if p.pos+8 > len(p.buf) {
		return 0, errCorrupt
	}
	v := binary.LittleEndian.Uint64(p.buf[p.pos:])
	p.pos += 8
	return v, nil
}

// IndexedTrace is a binary v3 recording opened through its block index for
// random access to block ranges. The underlying reads go through ReadAt, so
// any number of RangeReaders over one IndexedTrace may run concurrently.
type IndexedTrace struct {
	r      io.ReaderAt
	f      *os.File // non-nil when opened from a path; closed by Close
	size   int64
	weight float64
	total  uint64
	levels []cache.Level
	idx    *BlockIndex
}

// NewIndexedTrace opens an indexed recording over an io.ReaderAt of the
// given size. It returns ErrNoIndex for anything without a valid v3 header
// and index footer pair (CSV, compressed, unindexed), and a descriptive
// error for a footer that fails validation; callers treat any error as
// "use the streaming path".
func NewIndexedTrace(r io.ReaderAt, size int64) (*IndexedTrace, error) {
	hr := bufio.NewReaderSize(io.NewSectionReader(r, 0, size), 4<<10)
	head, err := hr.Peek(len(binaryMagic))
	if err != nil || string(head) != binaryMagic {
		return nil, ErrNoIndex
	}
	hr.Discard(len(binaryMagic))
	weight, total, levels, compressed, err := readBinaryHeader(hr)
	if err != nil {
		return nil, err
	}
	if compressed {
		return nil, ErrNoIndex
	}
	idx, err := ReadBlockIndex(r, size)
	if err != nil {
		return nil, err
	}
	var sum uint64
	for i := range idx.Entries {
		sum += uint64(idx.Entries[i].Count)
	}
	if sum != total {
		return nil, fmt.Errorf("profiledata: block index holds %d samples but the header claims %d", sum, total)
	}
	return &IndexedTrace{r: r, size: size, weight: weight, total: total, levels: levels, idx: idx}, nil
}

// OpenIndexedTrace opens the recording at path through its block index.
// Close the returned trace when done.
func OpenIndexedTrace(path string) (*IndexedTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	it, err := NewIndexedTrace(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	it.f = f
	return it, nil
}

// Weight returns the collector weight recorded in the header.
func (it *IndexedTrace) Weight() float64 { return it.weight }

// TotalSamples returns the recording's sample count.
func (it *IndexedTrace) TotalSamples() int { return int(it.total) }

// Blocks returns the number of indexed blocks.
func (it *IndexedTrace) Blocks() int { return len(it.idx.Entries) }

// Entry returns the i-th block's index entry.
func (it *IndexedTrace) Entry(i int) IndexEntry { return it.idx.Entries[i] }

// HasChecksums reports a DRBWIDX2 index: per-block payload checksums are
// present, range reads verify them, and Fingerprint works from the index.
func (it *IndexedTrace) HasChecksums() bool { return it.idx.HasSums }

// TimeBounds returns the recording's global sample time range as recorded
// by the block index, in O(blocks) — no sample ever decodes. ok is false
// for an empty recording. The range is the index's claim; the single-pass
// analysis verifies it against the decoded samples.
func (it *IndexedTrace) TimeBounds() (minT, maxT float64, ok bool) {
	entries := it.idx.Entries
	if len(entries) == 0 {
		return 0, 0, false
	}
	minT, maxT = entries[0].MinTime, entries[0].MaxTime
	for i := 1; i < len(entries); i++ {
		e := &entries[i]
		if e.MinTime < minT {
			minT = e.MinTime
		}
		if e.MaxTime > maxT {
			maxT = e.MaxTime
		}
	}
	return minT, maxT, true
}

// Close releases the underlying file when the trace was opened from a path.
func (it *IndexedTrace) Close() error {
	if it.f != nil {
		return it.f.Close()
	}
	return nil
}

// RangeReader returns a SampleReader over blocks [from, to), seeded with
// the range's decoder state so it yields exactly the samples a front-to-
// back read would yield for those blocks. Each reader holds its own
// position (reads go through ReadAt), so per-worker readers over one
// IndexedTrace are safe to drive concurrently; bufs follows the usual
// Buffers contract of backing one live reader at a time.
func (it *IndexedTrace) RangeReader(from, to int, bufs *Buffers) (*SampleReader, error) {
	if from < 0 || to > len(it.idx.Entries) || from >= to {
		return nil, fmt.Errorf("profiledata: block range [%d, %d) outside the %d-block index", from, to, len(it.idx.Entries))
	}
	if bufs == nil {
		bufs = &Buffers{}
	}
	start := it.idx.Entries[from].Offset
	end := it.idx.DataEnd
	if to < len(it.idx.Entries) {
		end = it.idx.Entries[to].Offset
	}
	var total uint64
	for i := from; i < to; i++ {
		total += uint64(it.idx.Entries[i].Count)
	}
	e := &it.idx.Entries[from]
	sr := &SampleReader{
		weight: it.weight, format: FormatBinaryV3, bufs: bufs,
		total: total, avail: end - start,
		limited: true, blocksLeft: to - from,
	}
	if it.idx.HasSums {
		// Each decoded block is verified against its recorded checksum, so
		// silent payload corruption surfaces as an error instead of as
		// structurally-valid garbage samples.
		sr.sums = make([]uint64, 0, to-from)
		for i := from; i < to; i++ {
			sr.sums = append(sr.sums, it.idx.Entries[i].Sum)
		}
	}
	sr.dec = blockDecoder{prevTime: e.PrevTime, prevAddr: e.PrevAddr, prevLat: e.PrevLat, levels: it.levels}
	sr.body = bufio.NewReaderSize(io.NewSectionReader(it.r, start, end-start), 64<<10)
	return sr, nil
}
