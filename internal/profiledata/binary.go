package profiledata

// Binary columnar samples format (v4).
//
// CSV recordings (v1/v2) cost where it hurts at scale: every field is
// re-parsed through encoding/csv + strconv, and a 1M-sample trace is tens
// of megabytes of text. v4 stores the same nine sample fields as packed
// per-block columns:
//
//	header:  magic "DRBWPD4\n", version byte, flags byte (always 0),
//	         weight float64 LE, uvarint total sample count (0 when the
//	         writer did not know it), level dictionary (count, then
//	         length-prefixed level names in index order)
//	body:    blocks until a zero sample count
//	footer:  the block index (see index.go)
//	block:   uvarint sampleCount, uvarint payloadLen, payload
//	payload: time column    zigzag-varint deltas of the cycle count
//	                        (running across blocks)
//	         cpu column     zigzag varint per sample
//	         thread column  zigzag varint per sample
//	         addr column    zigzag varint delta per sample (running)
//	         level column   one dictionary index byte per sample
//	         latency column uvarint cycles per sample
//	         write column   ceil(count/8) bytes, LSB first
//	         src column     zigzag varint per sample
//	         home column    zigzag varint per sample
//
// Times and latencies are whole cycles (pebs.Check): the writer rejects a
// sample that is not, and the reader rejects a decoded time outside
// [0, 2^53] or latency outside [0, 2^32), so every recording round-trips
// exactly. The level dictionary makes the format self-describing: indexes
// are resolved through the recorded names, not through cache.Level values.
// Every v4 file has one layout: uncompressed blocks closed by the index
// footer, so analysis can decode any block range on its own.
//
// v3 recordings, whose columns carried fractional cycles, are rejected
// with an error that says to re-record them.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// binaryMagic opens every v4 samples file. No CSV recording can collide:
// v2 starts with "#drbw-sa", v1 with "time,cpu".
const binaryMagic = "DRBWPD4\n"

// binaryVersion is the format version the writer emits and the only one
// the reader accepts.
const binaryVersion = 4

// binaryMagicV3 opened the retired v3 format.
const binaryMagicV3 = "DRBWPD3\n"

var errBinaryV3 = errors.New("profiledata: binary v3 recording: v3 stored fractional cycles and is no longer read; re-record it to write v4")

// DefaultBlockSize is the samples per block TraceData.SaveAs writes —
// large enough to amortize per-block overhead, small enough that a
// streaming reader holds only a few hundred KB per trace.
const DefaultBlockSize = 8192

// maxBlockSamples bounds the per-block sample count a reader will accept,
// so a corrupt or malicious count cannot make the decoder allocate an
// arbitrarily large block.
const maxBlockSamples = 1 << 20

// maxSampleEncoded is the worst-case encoded bytes per sample (nine
// columns, all at their widest), used to sanity-check payload lengths.
const maxSampleEncoded = 80

// minSampleEncoded is the fewest bytes one sample can occupy in a block
// payload (nine columns at their narrowest). It bounds both the payload
// plausibility check and the whole-trace allocation hint: a header cannot
// claim more samples than the bytes on hand divided by this.
const minSampleEncoded = 7

// levelNames is the dictionary written into the header, indexed by
// cache.Level. parseLevel inverts it on read.
var levelNames = []string{
	cache.L1.String(), cache.L2.String(), cache.L3.String(),
	cache.LFB.String(), cache.MEM.String(),
}

// WriteSamplesBinary writes samples in the binary columnar v4 format,
// blockSize samples to a block, closed by the block index footer. A sample
// failing pebs.Check, a NaN or infinite weight, or a block size outside
// [1, 2^20] is an error, and nothing is written; a finite non-positive
// weight is written as 1, mirroring WriteSamples.
func WriteSamplesBinary(w io.Writer, samples []pebs.Sample, weight float64, blockSize int) error {
	if blockSize < 1 || blockSize > maxBlockSamples {
		return fmt.Errorf("profiledata: block size %d outside [1, %d]", blockSize, maxBlockSamples)
	}
	weight, err := writeWeight(weight)
	if err != nil {
		return err
	}
	if err := checkSamples(samples); err != nil {
		return err
	}

	bw := bufio.NewWriter(w)
	// Header.
	bw.WriteString(binaryMagic)
	bw.WriteByte(binaryVersion)
	bw.WriteByte(0) // flags
	var f8 [8]byte
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(weight))
	bw.Write(f8[:])
	// Total sample count: lets the reader size its slice once instead of
	// growing through half a dozen reallocations on a large trace.
	var cnt [binary.MaxVarintLen64]byte
	ncnt := binary.PutUvarint(cnt[:], uint64(len(samples)))
	bw.Write(cnt[:ncnt])
	bw.WriteByte(byte(len(levelNames)))
	for _, name := range levelNames {
		bw.WriteByte(byte(len(name)))
		bw.WriteString(name)
	}

	// Block offsets for the index are computed arithmetically: the header
	// length plus every block written so far.
	off := int64(len(binaryMagic)) + 2 + 8 + int64(ncnt) + 1
	for _, name := range levelNames {
		off += 1 + int64(len(name))
	}
	var entries []IndexEntry

	var enc blockEncoder
	var head [2 * binary.MaxVarintLen64]byte
	for start := 0; start < len(samples); start += blockSize {
		block := samples[start:min(start+blockSize, len(samples))]
		// Decoder seed state is the encoder's running deltas as they stand
		// *before* this block.
		e := IndexEntry{
			Offset: off, Count: len(block),
			PrevTime: enc.prevTime, PrevAddr: enc.prevAddr,
			MinTime: block[0].Time, MaxTime: block[0].Time,
		}
		for i := range block {
			e.MinTime = min(e.MinTime, block[i].Time)
			e.MaxTime = max(e.MaxTime, block[i].Time)
		}
		payload, err := enc.encode(block)
		if err != nil {
			return err
		}
		// The entry checksums the payload bytes as written, so range reads
		// can verify blocks and FileFingerprint can identify the
		// recording's content from the index alone.
		e.Sum = blockChecksum(payload)
		entries = append(entries, e)
		n := binary.PutUvarint(head[:], uint64(len(block)))
		n += binary.PutUvarint(head[n:], uint64(len(payload)))
		bw.Write(head[:n])
		bw.Write(payload)
		off += int64(n) + int64(len(payload))
	}
	// Zero-count terminator, then the footer.
	bw.WriteByte(0)
	if err := writeBlockIndex(bw, entries); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("profiledata: %w", err)
	}
	return nil
}

// blockEncoder carries the running deltas and the scratch buffer across the
// blocks of one file.
type blockEncoder struct {
	prevTime int64  // last encoded time
	prevAddr uint64 // last encoded address
	buf      []byte
}

// zigzag maps signed to unsigned for varint encoding.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encode serializes one block's columns into the reused scratch buffer. The
// samples have passed pebs.Check, so times and latencies convert to
// integers exactly.
func (e *blockEncoder) encode(block []pebs.Sample) ([]byte, error) {
	buf := e.buf[:0]
	prevTime := e.prevTime
	for i := range block {
		t := int64(block[i].Time)
		buf = binary.AppendUvarint(buf, zigzag(t-prevTime))
		prevTime = t
	}
	e.prevTime = prevTime
	for i := range block {
		buf = binary.AppendUvarint(buf, zigzag(int64(block[i].CPU)))
	}
	for i := range block {
		buf = binary.AppendUvarint(buf, zigzag(int64(block[i].Thread)))
	}
	prevAddr := e.prevAddr
	for i := range block {
		buf = binary.AppendUvarint(buf, zigzag(int64(block[i].Addr-prevAddr)))
		prevAddr = block[i].Addr
	}
	e.prevAddr = prevAddr
	for i := range block {
		lvl := int(block[i].Level)
		if lvl < 0 || lvl >= len(levelNames) {
			return nil, fmt.Errorf("profiledata: sample has unknown memory level %d", lvl)
		}
		buf = append(buf, byte(lvl))
	}
	for i := range block {
		buf = binary.AppendUvarint(buf, uint64(block[i].Latency))
	}

	// write column, bit-packed LSB first.
	var bits byte
	for i := range block {
		if block[i].Write {
			bits |= 1 << (uint(i) & 7)
		}
		if i&7 == 7 {
			buf = append(buf, bits)
			bits = 0
		}
	}
	if len(block)&7 != 0 {
		buf = append(buf, bits)
	}

	for i := range block {
		buf = binary.AppendUvarint(buf, zigzag(int64(block[i].SrcNode)))
	}
	for i := range block {
		buf = binary.AppendUvarint(buf, zigzag(int64(block[i].HomeNode)))
	}

	e.buf = buf
	return buf, nil
}

// checkSamples applies pebs.Check to every sample a writer is given.
func checkSamples(samples []pebs.Sample) error {
	for i := range samples {
		if err := pebs.Check(&samples[i]); err != nil {
			return fmt.Errorf("profiledata: sample %d: %w", i, err)
		}
	}
	return nil
}

// blockDecoder mirrors blockEncoder on the read side.
type blockDecoder struct {
	prevTime int64
	prevAddr uint64
	levels   []cache.Level // dictionary index -> level
}

// payloadReader walks one block payload with bounds checking.
type payloadReader struct {
	buf []byte
	pos int
}

var errCorrupt = fmt.Errorf("profiledata: corrupt binary block")

func (p *payloadReader) uvarint() (uint64, error) {
	// Single-byte fast path: most columns (nodes, levels, cpu, small
	// deltas) encode in one byte, and this branch keeps the common case
	// free of the multi-byte loop.
	if pos := p.pos; pos < len(p.buf) && p.buf[pos] < 0x80 {
		p.pos = pos + 1
		return uint64(p.buf[pos]), nil
	}
	v, n := binary.Uvarint(p.buf[p.pos:])
	if n <= 0 {
		return 0, errCorrupt
	}
	p.pos += n
	return v, nil
}

// uvarints decodes len(dst) varints in one batched loop. The buffer and
// position live in locals for the whole column, and while a full worst-case
// varint fits in the remaining bytes the decode runs entirely inline — one
// load and compare per byte, no per-value function call or slice
// re-derivation. The tail (and truncated input) goes through binary.Uvarint,
// and the inline loop reports overflow for exactly the encodings
// binary.Uvarint rejects, so batched and scalar decodes accept the same
// byte strings.
func (p *payloadReader) uvarints(dst []uint64) error {
	buf, pos := p.buf, p.pos
	i := 0
	for i < len(dst) && pos+binary.MaxVarintLen64 <= len(buf) {
		b := buf[pos]
		pos++
		if b < 0x80 {
			dst[i] = uint64(b)
			i++
			continue
		}
		v := uint64(b & 0x7f)
		s := uint(7)
		for {
			b = buf[pos]
			pos++
			if b < 0x80 {
				if s == 63 && b > 1 {
					return errCorrupt // overflows uint64, as binary.Uvarint reports
				}
				v |= uint64(b) << s
				break
			}
			v |= uint64(b&0x7f) << s
			s += 7
			if s >= 64 {
				return errCorrupt // more than MaxVarintLen64 bytes
			}
		}
		dst[i] = v
		i++
	}
	for ; i < len(dst); i++ {
		if pos < len(buf) && buf[pos] < 0x80 {
			dst[i] = uint64(buf[pos])
			pos++
			continue
		}
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return errCorrupt
		}
		dst[i] = v
		pos += n
	}
	p.pos = pos
	return nil
}

// bytes returns the next n payload bytes without copying.
func (p *payloadReader) bytes(n int) ([]byte, error) {
	if p.pos+n > len(p.buf) {
		return nil, errCorrupt
	}
	b := p.buf[p.pos : p.pos+n]
	p.pos += n
	return b, nil
}

// decode fills out (already sized to the block's sample count) from one
// payload. Each column is decoded as a whole run — varints batched into the
// caller's reusable scratch, then converted in a second tight loop — so the
// per-sample cost is a couple of cache-resident array passes instead of
// nine bounds-checked method calls. A time or latency outside pebs.Check's
// ranges fails the block.
func (d *blockDecoder) decode(payload []byte, out []pebs.Sample, scratch *[]uint64) error {
	n := len(out)
	if cap(*scratch) < n {
		*scratch = make([]uint64, n)
	}
	col := (*scratch)[:n]
	out = out[:len(col)] // teach the bounds prover: every out[i] below is in range
	p := payloadReader{buf: payload}

	if err := p.uvarints(col); err != nil {
		return err
	}
	prev := d.prevTime
	for i, u := range col {
		prev += unzigzag(u)
		if uint64(prev) > pebs.MaxTime {
			return fmt.Errorf("profiledata: time %d is not a whole cycle count in [0, 2^53]", prev)
		}
		out[i].Time = float64(prev)
	}
	d.prevTime = prev

	if err := p.uvarints(col); err != nil {
		return err
	}
	for i, u := range col {
		out[i].CPU = topology.CPUID(unzigzag(u))
	}
	if err := p.uvarints(col); err != nil {
		return err
	}
	for i, u := range col {
		out[i].Thread = int(unzigzag(u))
	}
	if err := p.uvarints(col); err != nil {
		return err
	}
	prevAddr := d.prevAddr
	for i, u := range col {
		prevAddr += uint64(unzigzag(u))
		out[i].Addr = prevAddr
	}
	d.prevAddr = prevAddr

	lvls, err := p.bytes(n)
	if err != nil {
		return err
	}
	nlv := len(d.levels)
	for i, b := range lvls {
		if int(b) >= nlv {
			return fmt.Errorf("profiledata: level index %d outside the %d-entry dictionary", b, nlv)
		}
		out[i].Level = d.levels[b]
	}

	if err := p.uvarints(col); err != nil {
		return err
	}
	for i, u := range col {
		if u > pebs.MaxLatency {
			return fmt.Errorf("profiledata: latency %d is not a whole cycle count in [0, 2^32)", u)
		}
		out[i].Latency = float64(u)
	}

	bits, err := p.bytes((n + 7) / 8)
	if err != nil {
		return err
	}
	for i := range out {
		out[i].Write = bits[i>>3]&(1<<(uint(i)&7)) != 0
	}

	if err := p.uvarints(col); err != nil {
		return err
	}
	for i, u := range col {
		out[i].SrcNode = topology.NodeID(unzigzag(u))
	}
	if err := p.uvarints(col); err != nil {
		return err
	}
	for i, u := range col {
		out[i].HomeNode = topology.NodeID(unzigzag(u))
	}
	if p.pos != len(p.buf) {
		return fmt.Errorf("profiledata: %d trailing bytes in binary block", len(p.buf)-p.pos)
	}
	return nil
}

// readBinaryHeader parses everything after the magic (which the caller has
// already consumed) and returns the weight, the total sample count written
// by the encoder (0 when unknown) and the level dictionary.
func readBinaryHeader(r *bufio.Reader) (weight float64, total uint64, levels []cache.Level, err error) {
	version, err := r.ReadByte()
	if err != nil {
		return 0, 0, nil, fmt.Errorf("profiledata: reading binary header: %w", err)
	}
	if version != binaryVersion {
		return 0, 0, nil, fmt.Errorf("profiledata: unsupported binary samples version %d (this reader handles %d)", version, binaryVersion)
	}
	flags, err := r.ReadByte()
	if err != nil {
		return 0, 0, nil, fmt.Errorf("profiledata: reading binary header: %w", err)
	}
	if flags != 0 {
		return 0, 0, nil, fmt.Errorf("profiledata: binary header flags %#x, want 0", flags)
	}
	var f8 [8]byte
	if _, err := io.ReadFull(r, f8[:]); err != nil {
		return 0, 0, nil, fmt.Errorf("profiledata: reading binary header: %w", err)
	}
	weight = math.Float64frombits(binary.LittleEndian.Uint64(f8[:]))
	if !(weight > 0) || math.IsInf(weight, 0) {
		return 0, 0, nil, fmt.Errorf("profiledata: binary header weight %v is not positive and finite", weight)
	}
	if total, err = binary.ReadUvarint(r); err != nil {
		return 0, 0, nil, fmt.Errorf("profiledata: reading binary header: %w", corruptEOF(err))
	}
	nlevels, err := r.ReadByte()
	if err != nil {
		return 0, 0, nil, fmt.Errorf("profiledata: reading binary header: %w", err)
	}
	if nlevels == 0 {
		return 0, 0, nil, fmt.Errorf("profiledata: binary header has an empty level dictionary")
	}
	var name [255]byte
	for i := 0; i < int(nlevels); i++ {
		n, err := r.ReadByte()
		if err != nil {
			return 0, 0, nil, fmt.Errorf("profiledata: reading level dictionary: %w", err)
		}
		if _, err := io.ReadFull(r, name[:n]); err != nil {
			return 0, 0, nil, fmt.Errorf("profiledata: reading level dictionary: %w", err)
		}
		lvl, err := parseLevel(string(name[:n]))
		if err != nil {
			return 0, 0, nil, fmt.Errorf("profiledata: level dictionary: %w", err)
		}
		levels = append(levels, lvl)
	}
	return weight, total, levels, nil
}
