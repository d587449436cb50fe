package profiledata

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"slices"

	"drbw/internal/pebs"
)

// Buffers is reusable decode scratch. A batch pipeline that opens many
// recordings hands the same Buffers to each successive SampleReader, so the
// per-block sample slice and payload buffer are allocated once per worker
// instead of once per trace. A Buffers must not back two live readers at
// once.
type Buffers struct {
	samples []pebs.Sample
	payload []byte
	column  []uint64      // batched column-decode scratch, one value per sample
	line    []byte        // a CSV line longer than the read buffer, put together
	fields  []byte        // the unquoted fields of a quoted CSV row
	rd      *bufio.Reader // the input's read buffer, reset for each reader
}

// reader returns the Buffers' 64 KiB read buffer, reset to read from r.
func (b *Buffers) reader(r io.Reader) *bufio.Reader {
	if b.rd == nil {
		b.rd = bufio.NewReaderSize(r, 64<<10)
	} else {
		b.rd.Reset(r)
	}
	return b.rd
}

// SampleReader streams a sample recording block by block, autodetecting the
// format: binary columnar v4 by its magic, otherwise CSV (v2 with the meta
// row, or v1 starting directly at the header). Weight is available as soon
// as the reader is constructed; Next yields chunks of samples in trace
// order without ever materializing the whole trace, so analysis memory is
// bounded by the block size however long the recording is.
type SampleReader struct {
	weight float64
	format string
	bufs   *Buffers

	// Binary state.
	body    *bufio.Reader // header-stripped body
	dec     blockDecoder
	total   uint64 // header sample-count hint; 0 when the writer didn't know
	decoded uint64 // samples decoded so far, checked against total at the end
	avail   int64  // input byte size when cheaply knowable, else -1

	// Range-limited state (readers built by IndexedTrace.RangeReader): the
	// reader stops after blocksLeft blocks instead of at a terminator.
	limited    bool
	blocksLeft int
	// sums, when non-nil, holds the range's per-block payload checksums
	// from the index; every block read is verified against its entry.
	sums []uint64

	// CSV state.
	lines    *bufio.Reader // nil for binary recordings
	offset   int64         // byte offset of the next line
	line     int           // record number of the next data row, for errors
	physLine int           // lines read, blank ones included
	// quoted parses the lines holding a quote, fed one at a time through
	// quotedLine; built on the first such line.
	quoted     *csv.Reader
	quotedLine lineSource

	done bool
}

// Format names for SampleReader.Format.
const (
	FormatCSVv1    = "csv-v1"
	FormatCSVv2    = "csv-v2"
	FormatBinaryV4 = "binary-v4"
)

// NewSampleReader opens a recording for streaming, autodetecting the
// format from the first bytes.
func NewSampleReader(r io.Reader) (*SampleReader, error) {
	return NewSampleReaderBuffers(r, nil)
}

// NewSampleReaderBuffers is NewSampleReader with caller-owned decode
// scratch; pass nil to let the reader allocate its own.
func NewSampleReaderBuffers(r io.Reader, bufs *Buffers) (*SampleReader, error) {
	if bufs == nil {
		bufs = &Buffers{}
	}
	sr, err := readHeader(bufs.reader(r), bufs)
	if err != nil {
		return nil, err
	}
	if sr.body != nil {
		sr.avail = inputSize(r)
	}
	return sr, nil
}

// Header is what a recording's first bytes say: its collector weight, its
// format and, for CSV, where its data rows start.
type Header struct {
	Weight float64
	Format string
	Data   CSVPos
}

// ReadHeader reads a recording's header through a small buffer; no sample
// decodes. Its errors are NewSampleReader's.
func ReadHeader(r io.Reader) (Header, error) {
	sr, err := readHeader(bufio.NewReaderSize(r, 4<<10), &Buffers{})
	if err != nil {
		return Header{}, err
	}
	return Header{Weight: sr.weight, Format: sr.format, Data: sr.Pos()}, nil
}

// readHeader reads the header from br and returns a reader positioned at
// the first block or data row: a binary one reads its blocks from br, and
// a CSV one its lines.
func readHeader(br *bufio.Reader, bufs *Buffers) (*SampleReader, error) {
	head, err := br.Peek(len(binaryMagic))
	if err == nil && string(head) == binaryMagicV3 {
		return nil, errBinaryV3
	}
	if err == nil && string(head) == binaryMagic {
		br.Discard(len(binaryMagic))
		weight, total, levels, err := readBinaryHeader(br)
		if err != nil {
			return nil, err
		}
		sr := &SampleReader{weight: weight, format: FormatBinaryV4, bufs: bufs, total: total, body: br}
		sr.dec.levels = levels
		return sr, nil
	}
	// CSV v1/v2, read line by line from br, which still holds the peeked
	// bytes.
	sr := &SampleReader{bufs: bufs, lines: br}
	if err := sr.readCSVHeader(); err != nil {
		return nil, err
	}
	return sr, nil
}

// Weight returns the collector weight recorded in the file (1 for v1).
func (sr *SampleReader) Weight() float64 { return sr.weight }

// Format names the detected recording format: FormatCSVv1, FormatCSVv2 or
// FormatBinaryV4.
func (sr *SampleReader) Format() string { return sr.format }

// Next returns the next chunk of samples, or (nil, io.EOF) when the
// recording is exhausted. The returned slice is reused by the following
// Next call; callers that retain samples must copy them out.
func (sr *SampleReader) Next() ([]pebs.Sample, error) {
	if sr.done {
		return nil, io.EOF
	}
	if sr.lines != nil {
		return sr.nextCSV()
	}
	return sr.nextBinary()
}

// grow returns the shared sample buffer resized to n.
func (sr *SampleReader) grow(n int) []pebs.Sample {
	if cap(sr.bufs.samples) < n {
		sr.bufs.samples = make([]pebs.Sample, n)
	}
	return sr.bufs.samples[:n]
}

func (sr *SampleReader) nextBinary() ([]pebs.Sample, error) {
	count, payload, err := sr.readBlock()
	if err != nil {
		return nil, err
	}
	out := sr.grow(count)
	if err := sr.dec.decode(payload, out, &sr.bufs.column); err != nil {
		return nil, err
	}
	return out, nil
}

// readBlock reads the next block header and payload into the shared payload
// buffer, returning io.EOF at the zero-count terminator — or, for a
// range-limited reader, after the range's block count, with the decoded
// total verified against the index's claim.
func (sr *SampleReader) readBlock() (int, []byte, error) {
	if sr.limited && sr.blocksLeft == 0 {
		sr.done = true
		if sr.decoded != sr.total {
			return 0, nil, fmt.Errorf("profiledata: block range holds %d samples but its index claims %d", sr.decoded, sr.total)
		}
		return 0, nil, io.EOF
	}
	count, err := binary.ReadUvarint(sr.body)
	if err != nil {
		return 0, nil, fmt.Errorf("profiledata: reading block header: %w", corruptEOF(err))
	}
	if count == 0 {
		sr.done = true
		if sr.total != 0 && sr.decoded != sr.total {
			return 0, nil, fmt.Errorf("profiledata: recording holds %d samples but its header claims %d", sr.decoded, sr.total)
		}
		return 0, nil, io.EOF
	}
	if count > maxBlockSamples {
		return 0, nil, fmt.Errorf("profiledata: block claims %d samples (limit %d)", count, maxBlockSamples)
	}
	plen, err := binary.ReadUvarint(sr.body)
	if err != nil {
		return 0, nil, fmt.Errorf("profiledata: reading block header: %w", corruptEOF(err))
	}
	// A block's payload is at least minSampleEncoded and at most
	// maxSampleEncoded bytes per sample; anything outside is corrupt. The
	// lower bound also means a huge claimed count needs a proportionally
	// huge payload actually present in the file before the sample buffer
	// below is allocated, so truncated or malicious headers cannot force
	// large allocations.
	if plen < minSampleEncoded*count || plen > maxSampleEncoded*count+16 {
		return 0, nil, fmt.Errorf("profiledata: block payload of %d bytes is implausible for %d samples", plen, count)
	}
	if cap(sr.bufs.payload) < int(plen) {
		sr.bufs.payload = make([]byte, plen)
	}
	payload := sr.bufs.payload[:plen]
	if _, err := io.ReadFull(sr.body, payload); err != nil {
		return 0, nil, fmt.Errorf("profiledata: reading block payload: %w", corruptEOF(err))
	}
	if sr.sums != nil {
		i := len(sr.sums) - sr.blocksLeft
		if got := blockChecksum(payload); got != sr.sums[i] {
			return 0, nil, fmt.Errorf("profiledata: block %d of range fails its index checksum (%#x, index claims %#x): corrupt recording", i, got, sr.sums[i])
		}
	}
	sr.decoded += count
	if sr.limited {
		sr.blocksLeft--
	}
	return int(count), payload, nil
}

// appendRemaining decodes every remaining block directly onto dst. On the
// binary path this skips Next's intermediate block buffer — each block is
// decoded in place at the tail of the destination slice — which is what
// makes whole-trace loads cheap; streaming callers should keep using Next.
func (sr *SampleReader) appendRemaining(dst []pebs.Sample) ([]pebs.Sample, error) {
	if sr.lines != nil || sr.done {
		for {
			block, err := sr.Next()
			if err == io.EOF {
				return dst, nil
			}
			if err != nil {
				return dst, err
			}
			dst = append(dst, block...)
		}
	}
	// The header's count hint sizes the slice in one allocation — that is
	// the whole point of writing the total, so a multi-block trace must not
	// be clamped back to one block's worth and regrown. The hint still
	// cannot demand more memory than the input could plausibly hold: when
	// the input size is knowable it is capped at the bytes actually present
	// over the minimum encoded sample size (so a forged header over a tiny
	// file allocates almost nothing), otherwise at one block's worth — the
	// bound readBlock enforces per block anyway. A hint the blocks don't
	// live up to is rejected at the terminator.
	if hint := sr.total; hint > 0 && dst == nil {
		limit := uint64(maxBlockSamples)
		if sr.avail >= 0 {
			limit = uint64(sr.avail) / minSampleEncoded
		}
		if hint > limit {
			hint = limit
		}
		dst = make([]pebs.Sample, 0, hint)
	}
	for {
		count, payload, err := sr.readBlock()
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		n := len(dst)
		dst = slices.Grow(dst, count)[:n+count]
		if err := sr.dec.decode(payload, dst[n:], &sr.bufs.column); err != nil {
			return dst[:n], err
		}
	}
}

// inputSize reports the byte size of the underlying input when it is
// cheaply knowable — regular files and the in-memory readers — and -1
// otherwise. It is only an upper bound used to sanity-check allocation
// hints, so the full size (rather than the bytes left after the current
// read position) is good enough.
func inputSize(r io.Reader) int64 {
	switch v := r.(type) {
	case *os.File:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	case interface{ Size() int64 }: // bytes.Reader, strings.Reader, io.SectionReader
		return v.Size()
	}
	return -1
}

// corruptEOF upgrades a bare EOF inside a structure to ErrUnexpectedEOF so
// truncation is reported as corruption, not as a clean end.
func corruptEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
