package profiledata

// Block index footer.
//
// A v4 recording carries, after the body's zero-count terminator, a footer
// describing every block: its absolute file offset, sample count,
// time range, decoder seed state (the running time and address deltas as
// they stood before the block) and payload checksum. The footer is
// discovered from the end of the file by a trailing magic, so it is
// invisible to streaming readers — they stop at the terminator and never
// reach it. Analysis reads every binary recording through it:
//
//	footer:  payload, uint64 LE payload length, magic "DRBWIDX3"
//	payload: uvarint entry count, then per entry:
//	         uvarint offset delta from the previous entry (first absolute),
//	         uvarint sample count,
//	         zigzag varint decoder prevTime,
//	         uvarint decoder prevAddr,
//	         uvarint min time, uvarint max time (whole cycles),
//	         block payload checksum uint64 LE
//
// The seed state is what makes blocks independently decodable: v4 columns
// delta-encode across block boundaries, so a reader seeked to block i can
// only invert the deltas if it knows where the encoder's running state
// stood. With it, any contiguous block range decodes to exactly the same
// samples a front-to-back read would produce, which is the foundation of
// the shard-parallel analysis path.
//
// The checksum is a CRC-64 (ECMA) of the block's payload bytes, computed at
// encode time. It buys two things: range readers verify each block they
// decode against it, and the whole recording's content can be
// fingerprinted from the index alone — header fields plus per-block counts
// and checksums — in O(index bytes) instead of rehashing the file (see
// FileFingerprint).
//
// A footer closed by any other magic, such as the DRBWIDX1 and DRBWIDX2
// footers of v3 recordings, reads as no index.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"

	"drbw/internal/cache"
	"drbw/internal/pebs"
)

// indexMagic closes every indexed recording. Distinct from binaryMagic so
// a truncated file can never present a stale footer as a header or vice
// versa.
const indexMagic = "DRBWIDX3"

// indexTailLen is the fixed-size trailer: uint64 payload length + magic.
const indexTailLen = 8 + len(indexMagic)

// minIndexEntryLen is the narrowest possible encoded entry (six one-byte
// varints plus the checksum), bounding the entry count a footer can
// plausibly claim.
const minIndexEntryLen = 6 + 8

// ErrNoIndex reports that a recording carries no block index footer: it is
// not a v4 recording (CSV, say), or a v4 one truncated before the trailing
// magic or closed by a retired footer magic. Analysis reads a CSV
// recording by byte ranges instead and rejects such a v4 one.
var ErrNoIndex = errors.New("profiledata: recording has no block index")

// IndexEntry describes one block of an indexed recording.
type IndexEntry struct {
	// Offset is the block's absolute file offset (its count uvarint).
	Offset int64
	// Count is the block's sample count.
	Count int
	// MinTime and MaxTime bound the block's sample times.
	MinTime, MaxTime float64
	// PrevTime and PrevAddr seed the block decoder with the running deltas
	// as they stood before this block.
	PrevTime int64
	PrevAddr uint64
	// Sum is the CRC-64 (ECMA) of the block's payload bytes.
	Sum uint64
}

// BlockIndex is a recording's decoded block index.
type BlockIndex struct {
	Entries []IndexEntry
	// DataEnd is the file offset of the body terminator — one past the last
	// block's final byte.
	DataEnd int64
}

// blockSumTable is the CRC-64 polynomial the per-block checksums use.
var blockSumTable = crc64.MakeTable(crc64.ECMA)

// blockChecksum is the per-block payload checksum.
func blockChecksum(payload []byte) uint64 {
	return crc64.Checksum(payload, blockSumTable)
}

// WriteBlockIndex appends a block index footer to w — the writing half of
// ReadBlockIndex, for tools and tests that rebuild or rewrite footers on an
// existing body. WriteSamplesBinary emits the same footer for every
// recording it writes; entries it did not compute itself are the caller's
// responsibility to keep truthful (the single-pass analysis cross-checks
// them against the decoded samples).
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

// writeBlockIndex appends the footer. Entry times are whole cycles, as
// every written sample's are.
func writeBlockIndex(w *bufio.Writer, entries []IndexEntry) error {
	payload := binary.AppendUvarint(nil, uint64(len(entries)))
	prevOff := int64(0)
	for _, e := range entries {
		payload = binary.AppendUvarint(payload, uint64(e.Offset-prevOff))
		prevOff = e.Offset
		payload = binary.AppendUvarint(payload, uint64(e.Count))
		payload = binary.AppendUvarint(payload, zigzag(e.PrevTime))
		payload = binary.AppendUvarint(payload, e.PrevAddr)
		payload = binary.AppendUvarint(payload, uint64(e.MinTime))
		payload = binary.AppendUvarint(payload, uint64(e.MaxTime))
		payload = binary.LittleEndian.AppendUint64(payload, e.Sum)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("profiledata: writing block index: %w", err)
	}
	var tail [indexTailLen]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(len(payload)))
	copy(tail[8:], indexMagic)
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("profiledata: writing block index: %w", err)
	}
	return nil
}

// ReadBlockIndex parses the block index footer of a recording of the given
// size. It returns ErrNoIndex when no trailing magic is present, and a
// descriptive error when a footer is present but does not validate: every
// structural invariant a forged or damaged footer could break — offsets out
// of order or out of bounds, implausible counts, inverted or out-of-range
// time ranges — is rejected here rather than trusted by the range readers.
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
	if string(tail[8:]) != indexMagic {
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
	if n > plen/minIndexEntryLen {
		return nil, fmt.Errorf("profiledata: block index claims %d entries in %d bytes", n, plen)
	}
	idx := &BlockIndex{Entries: make([]IndexEntry, 0, n), DataEnd: dataEnd}
	prevOff := int64(0)
	for i := uint64(0); i < n; i++ {
		var e IndexEntry
		var u [6]uint64
		for j := range u {
			if u[j], err = p.uvarint(); err != nil {
				return nil, fmt.Errorf("profiledata: corrupt block index: %w", err)
			}
		}
		if e.Sum, err = p.fixed64(); err != nil {
			return nil, fmt.Errorf("profiledata: corrupt block index: %w", err)
		}
		e.Offset = prevOff + int64(u[0])
		e.Count = int(u[1])
		e.PrevTime = unzigzag(u[2])
		e.PrevAddr = u[3]
		if e.Offset <= prevOff && i > 0 || e.Offset >= dataEnd || e.Offset <= int64(len(binaryMagic)) {
			return nil, fmt.Errorf("profiledata: block index entry %d has offset %d outside (%d, %d)", i, e.Offset, prevOff, dataEnd)
		}
		if e.Count <= 0 || e.Count > maxBlockSamples {
			return nil, fmt.Errorf("profiledata: block index entry %d claims %d samples (limit %d)", i, e.Count, maxBlockSamples)
		}
		if u[4] > u[5] || u[5] > pebs.MaxTime {
			return nil, fmt.Errorf("profiledata: block index entry %d has time range [%d, %d] outside [0, 2^53] or inverted", i, u[4], u[5])
		}
		e.MinTime, e.MaxTime = float64(u[4]), float64(u[5])
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

// fixed64 reads a fixed-width little-endian uint64 (the checksum field —
// varints would cost more than they save on hash-distributed bits).
func (p *payloadReader) fixed64() (uint64, error) {
	if p.pos+8 > len(p.buf) {
		return 0, errCorrupt
	}
	v := binary.LittleEndian.Uint64(p.buf[p.pos:])
	p.pos += 8
	return v, nil
}

// IndexedTrace is a binary v4 recording opened through its block index for
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
// given size. It returns ErrNoIndex for anything without a v4 header or
// without an index footer (see ErrNoIndex), and a descriptive error for a
// header or footer that fails validation.
func NewIndexedTrace(r io.ReaderAt, size int64) (*IndexedTrace, error) {
	hr := bufio.NewReaderSize(io.NewSectionReader(r, 0, size), 4<<10)
	head, err := hr.Peek(len(binaryMagic))
	if err != nil || string(head) != binaryMagic {
		return nil, ErrNoIndex
	}
	hr.Discard(len(binaryMagic))
	weight, total, levels, err := readBinaryHeader(hr)
	if err != nil {
		return nil, err
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
		weight: it.weight, format: FormatBinaryV4, bufs: bufs,
		total: total, avail: end - start,
		limited: true, blocksLeft: to - from,
	}
	// Each decoded block is verified against its recorded checksum, so
	// silent payload corruption surfaces as an error instead of as
	// structurally-valid garbage samples.
	sr.sums = make([]uint64, 0, to-from)
	for i := from; i < to; i++ {
		sr.sums = append(sr.sums, it.idx.Entries[i].Sum)
	}
	sr.dec = blockDecoder{prevTime: e.PrevTime, prevAddr: e.PrevAddr, levels: it.levels}
	sr.body = bufio.NewReaderSize(io.NewSectionReader(it.r, start, end-start), 64<<10)
	return sr, nil
}
