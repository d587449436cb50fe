package profiledata

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// csvBlockSize is the samples per Next chunk when streaming CSV: small,
// since every job of a split recording holds one block on its worker.
const csvBlockSize = 1024

// sampleFields is the column count of a CSV data row.
const sampleFields = 9

// readCSVHeader reads the optional v2 meta row and the header row of a CSV
// recording whose lines sr.lines yields, setting the weight and format.
func (sr *SampleReader) readCSVHeader() error {
	header, err := sr.headerRecord()
	if err != nil {
		return fmt.Errorf("profiledata: reading header: %w", err)
	}
	sr.weight, sr.format = 1, FormatCSVv1
	if len(header) > 0 && header[0] == metaTag {
		if sr.weight, err = readMeta(header); err != nil {
			return err
		}
		if header, err = sr.headerRecord(); err != nil {
			return fmt.Errorf("profiledata: reading header: %w", err)
		}
		sr.format = FormatCSVv2
	}
	sr.line = firstRecord(sr.format)
	if len(header) != len(sampleHeader) {
		return fmt.Errorf("profiledata: header has %d columns, want %d", len(header), len(sampleHeader))
	}
	for i, h := range sampleHeader {
		if header[i] != h {
			return fmt.Errorf("profiledata: header column %d is %q, want %q", i, header[i], h)
		}
	}
	return nil
}

// readLine returns the next non-empty line, both raw and stripped of its
// "\n" or "\r\n" (or, on a final line without one, of a trailing "\r"), or
// io.EOF. Lines longer than the read buffer are put together in the
// Buffers' line scratch; both slices are valid until the next call.
func (sr *SampleReader) readLine() (raw, line []byte, err error) {
	for {
		raw, err = sr.lines.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long := append(sr.bufs.line[:0], raw...)
			for err == bufio.ErrBufferFull {
				raw, err = sr.lines.ReadSlice('\n')
				long = append(long, raw...)
			}
			sr.bufs.line = long
			raw = long
		}
		if len(raw) == 0 {
			return nil, nil, err
		}
		if err != nil && err != io.EOF {
			return nil, nil, err
		}
		sr.offset += int64(len(raw))
		sr.physLine++
		line = raw
		if n := len(line); line[n-1] == '\n' {
			line = line[:n-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) > 0 {
			return raw, line, nil
		}
	}
}

// lineSource is an io.Reader over one line at a time, so that one
// csv.Reader serves every quoted line of a recording.
type lineSource struct{ b []byte }

func (l *lineSource) Read(p []byte) (int, error) {
	if len(l.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, l.b)
	l.b = l.b[n:]
	return n, nil
}

// quotedRecord parses a raw line holding a quote as one RFC 4180 record.
// A quoted field left open at the end of the line fails here, where
// encoding/csv over the whole file would carry it into the next line; no
// sample or header field can parse with a newline in it, so the recording
// is rejected either way. Parse errors are renumbered to the line's place
// in the file. The record is valid until the next call.
func (sr *SampleReader) quotedRecord(raw []byte) ([]string, error) {
	if sr.quoted == nil {
		sr.quoted = csv.NewReader(&sr.quotedLine)
		sr.quoted.FieldsPerRecord = -1
		sr.quoted.ReuseRecord = true
	}
	sr.quotedLine.b = raw
	rec, err := sr.quoted.Read()
	if pe, ok := err.(*csv.ParseError); ok {
		shift := sr.physLine - pe.StartLine
		pe.StartLine += shift
		pe.Line += shift
	}
	return rec, err
}

// headerRecord reads the next record as strings, for the meta and header
// rows.
func (sr *SampleReader) headerRecord() ([]string, error) {
	raw, line, err := sr.readLine()
	if err != nil {
		return nil, err
	}
	if bytes.IndexByte(line, '"') >= 0 {
		return sr.quotedRecord(raw)
	}
	return strings.Split(string(line), ","), nil
}

// firstRecord is the record number of a CSV recording's first data row,
// after the header row and, in v2, the meta row.
func firstRecord(format string) int {
	if format == FormatCSVv2 {
		return 3
	}
	return 2
}

// CSVPos is a line boundary in a CSV recording: byte Offset, preceded by
// Rows data rows and Lines physical lines, the header and blank lines
// included.
type CSVPos struct {
	Offset      int64
	Rows, Lines int
}

// Pos returns a CSV reader's position: where its data rows start before
// the first Next, where they end once Next has returned io.EOF. It is the
// zero CSVPos for a binary recording.
func (sr *SampleReader) Pos() CSVPos {
	if sr.lines == nil {
		return CSVPos{}
	}
	return CSVPos{Offset: sr.offset, Rows: sr.line - firstRecord(sr.format), Lines: sr.physLine}
}

// NewCSVSectionReader starts the CSV row scanner of a recording with header
// h on sec, whose first byte begins a line at position at. Rows and lines
// are counted on from at, so when at is exact the reader yields the samples
// and errors a front-to-back read would yield for these lines; its blocks
// are counted from sec's first row. bufs is as for NewSampleReaderBuffers.
func NewCSVSectionReader(sec *io.SectionReader, h Header, at CSVPos, bufs *Buffers) *SampleReader {
	if bufs == nil {
		bufs = &Buffers{}
	}
	return &SampleReader{
		weight: h.Weight, format: h.Format, bufs: bufs, lines: bufs.reader(sec),
		offset: at.Offset, line: firstRecord(h.Format) + at.Rows, physLine: at.Lines,
	}
}

func (sr *SampleReader) nextCSV() ([]pebs.Sample, error) {
	out := sr.grow(csvBlockSize)
	for n := range out {
		raw, line, err := sr.readLine()
		if err == io.EOF {
			sr.done = true
			if n == 0 {
				return nil, io.EOF
			}
			return out[:n], nil
		}
		if err != nil {
			return nil, fmt.Errorf("profiledata: line %d: %w", sr.line, err)
		}
		if err := sr.parseRow(raw, line, &out[n]); err != nil {
			return nil, err
		}
		sr.line++
	}
	return out, nil
}

// parseRow parses a data row, split on commas in one pass over the line;
// a row holding a quote goes to parseQuotedRow instead.
func (sr *SampleReader) parseRow(raw, line []byte, s *pebs.Sample) error {
	var rec [sampleFields][]byte
	fields, start := 0, 0
	for i, c := range line {
		switch c {
		case ',':
			if fields < len(rec) {
				rec[fields] = line[start:i]
			}
			fields++
			start = i + 1
		case '"':
			return sr.parseQuotedRow(raw, s)
		}
	}
	if fields < len(rec) {
		rec[fields] = line[start:]
	}
	return parseSampleFields(&rec, fields+1, sr.line, s)
}

// parseQuotedRow parses a data row holding a quote as one RFC 4180 record.
func (sr *SampleReader) parseQuotedRow(raw []byte, s *pebs.Sample) error {
	quoted, err := sr.quotedRecord(raw)
	if err != nil {
		return fmt.Errorf("profiledata: line %d: %w", sr.line, err)
	}
	// The unquoted fields go into reused scratch, one after another, for
	// the field parsers to read as bytes.
	var rec [sampleFields][]byte
	buf := sr.bufs.fields[:0]
	for _, f := range quoted {
		buf = append(buf, f...)
	}
	sr.bufs.fields = buf
	for i, f := range quoted {
		if i < len(rec) {
			rec[i] = buf[:len(f)]
		}
		buf = buf[len(f):]
	}
	return parseSampleFields(&rec, len(quoted), sr.line, s)
}

// parseSampleFields parses the fields of one CSV data row into s; fields
// is the row's field count, of which rec holds the first nine.
func parseSampleFields(rec *[sampleFields][]byte, fields, line int, s *pebs.Sample) error {
	if fields != sampleFields {
		return fmt.Errorf("profiledata: line %d has %d fields, want %d", line, fields, sampleFields)
	}
	var err error
	if s.Time, err = parseCycles(rec[0]); err != nil {
		return fmt.Errorf("profiledata: line %d time: %w", line, err)
	}
	cpu, err := atoi(rec[1])
	if err != nil {
		return fmt.Errorf("profiledata: line %d cpu: %w", line, err)
	}
	s.CPU = topology.CPUID(cpu)
	if s.Thread, err = atoi(rec[2]); err != nil {
		return fmt.Errorf("profiledata: line %d thread: %w", line, err)
	}
	if s.Addr, err = parseAddrBytes(rec[3]); err != nil {
		return fmt.Errorf("profiledata: line %d addr: %w", line, err)
	}
	if s.Level, err = parseLevelBytes(rec[4]); err != nil {
		return fmt.Errorf("profiledata: line %d: %w", line, err)
	}
	if s.Latency, err = parseCycles(rec[5]); err != nil {
		return fmt.Errorf("profiledata: line %d latency: %w", line, err)
	}
	if s.Write, err = parseBool(rec[6]); err != nil {
		return fmt.Errorf("profiledata: line %d write: %w", line, err)
	}
	src, err := atoi(rec[7])
	if err != nil {
		return fmt.Errorf("profiledata: line %d src_node: %w", line, err)
	}
	home, err := atoi(rec[8])
	if err != nil {
		return fmt.Errorf("profiledata: line %d home_node: %w", line, err)
	}
	s.SrcNode, s.HomeNode = topology.NodeID(src), topology.NodeID(home)
	if err := pebs.Check(s); err != nil {
		return fmt.Errorf("profiledata: line %d: %w", line, err)
	}
	return nil
}

// The field parsers read the spellings WriteSamples emits without
// allocating. Any other spelling goes to the strconv-based parser that
// defines the field's syntax, so results and errors are that parser's.

func atoi(b []byte) (int, error) {
	if v, ok := digits(b); ok {
		return int(v), nil
	}
	return strconv.Atoi(string(b))
}

// parseCycles reads a time or latency field as strconv.ParseFloat does,
// reading plain digits up to 2^53, where float64 is exact, directly.
// pebs.Check then decides whether the number is a whole cycle count.
func parseCycles(b []byte) (float64, error) {
	if v, ok := digits(b); ok && v <= pebs.MaxTime {
		return float64(v), nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// hexDigits maps a byte to its hex digit value, or to 0xff.
var hexDigits = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i := byte(0); i < 16; i++ {
		t["0123456789abcdef"[i]] = i
		t["0123456789ABCDEF"[i]] = i
	}
	return t
}()

// parseAddrBytes reads "0x" and up to 16 hex digits, too few to overflow,
// directly.
func parseAddrBytes(b []byte) (uint64, error) {
	if len(b) > 2 && len(b) <= 18 && b[0] == '0' && b[1] == 'x' {
		var v uint64
		for _, c := range b[2:] {
			d := hexDigits[c]
			if d > 15 {
				return parseAddr(string(b))
			}
			v = v<<4 | uint64(d)
		}
		return v, nil
	}
	return parseAddr(string(b))
}

func parseLevelBytes(b []byte) (cache.Level, error) {
	switch string(b) {
	case "L1":
		return cache.L1, nil
	case "L2":
		return cache.L2, nil
	case "L3":
		return cache.L3, nil
	case "LFB":
		return cache.LFB, nil
	case "MEM":
		return cache.MEM, nil
	}
	return parseLevel(string(b))
}

func parseBool(b []byte) (bool, error) {
	switch string(b) {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return strconv.ParseBool(string(b))
}

// digits reads 1 to 18 decimal digits, too few to overflow an int64.
func digits(b []byte) (v uint64, ok bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	for _, c := range b {
		if c-'0' > 9 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}
