package profiledata

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"drbw/internal/pebs"
)

// readSplit reads the CSV recording data in the ranges between cuts, line
// boundaries after its header, the way the fused pass reads them: the
// first range counts rows and lines from the header's end, the others from
// zero. When a range fails, the whole file is read again from its header,
// and that read's error is returned.
func readSplit(data []byte, h Header, cuts []int64) ([]pebs.Sample, error) {
	r := bytes.NewReader(data)
	bounds := append(append([]int64{h.Data.Offset}, cuts...), int64(len(data)))
	bufs := &Buffers{}
	var out []pebs.Sample
	for k := 1; k < len(bounds); k++ {
		from, to := bounds[k-1], bounds[k]
		at := CSVPos{Offset: from}
		if k == 1 {
			at = h.Data
		}
		sr := NewCSVSectionReader(io.NewSectionReader(r, from, to-from), h, at, bufs)
		var err error
		if out, err = sr.appendRemaining(out); err != nil {
			whole := NewCSVSectionReader(io.NewSectionReader(r, h.Data.Offset, int64(len(data))-h.Data.Offset), h, h.Data, bufs)
			if _, err = whole.appendRemaining(nil); err == nil {
				panic("a failed range read again with the whole file succeeded")
			}
			return nil, err
		}
		if sr.Pos().Offset != to {
			panic("a range ended before its cut")
		}
	}
	return out, nil
}

// lineStarts returns every line boundary of data after start and before
// its end.
func lineStarts(data []byte, start int64) []int64 {
	var out []int64
	for i := start + 1; i < int64(len(data)); i++ {
		if data[i-1] == '\n' {
			out = append(out, i)
		}
	}
	return out
}

// TestCSVSectionReaderPositions: Pos reports where a CSV recording's data
// rows start and, once read, where they end, counting blank lines as
// physical lines but not as rows.
func TestCSVSectionReaderPositions(t *testing.T) {
	data := []byte("\n" + csvMeta + "\r\n\n" + csvHeader + "\n" + csvRow1 + "\n\n" + csvRow2 + "\r\n")
	h, err := ReadHeader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	start := int64(bytes.Index(data, []byte(csvRow1)))
	if want := (Header{Weight: 2.5, Format: FormatCSVv2, Data: CSVPos{Offset: start, Lines: 4}}); h != want {
		t.Fatalf("header %+v, want %+v", h, want)
	}
	sr := NewCSVSectionReader(io.NewSectionReader(bytes.NewReader(data), start, int64(len(data))-start), h, h.Data, nil)
	got, err := sr.appendRemaining(nil)
	if err != nil || len(got) != 2 {
		t.Fatalf("read %d samples, %v", len(got), err)
	}
	if want := (CSVPos{Offset: int64(len(data)), Rows: 2, Lines: 7}); sr.Pos() != want {
		t.Fatalf("end %+v, want %+v", sr.Pos(), want)
	}

	bin := new(bytes.Buffer)
	if err := WriteSamplesBinary(bin, got, 2.5, DefaultBlockSize); err != nil {
		t.Fatal(err)
	}
	if h, err := ReadHeader(bin); err != nil || h != (Header{Weight: 2.5, Format: FormatBinaryV4}) {
		t.Fatalf("binary header %+v, %v", h, err)
	}
}

// TestCSVSectionReaderReusesReadBuffer: a Buffers keeps its 64 KiB read
// buffer, so each range a worker reads costs a few small allocations.
func TestCSVSectionReaderReusesReadBuffer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSamples(&buf, testTrace(10, 3), 1); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	h, err := ReadHeader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(data)
	bufs := &Buffers{}
	read := func() {
		sr := NewCSVSectionReader(io.NewSectionReader(r, h.Data.Offset, int64(len(data))-h.Data.Offset), h, h.Data, bufs)
		for {
			if _, err := sr.Next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	read()
	if allocs := testing.AllocsPerRun(10, read); allocs > 2 {
		t.Errorf("reading a range allocates %v times, want at most 2", allocs)
	}
}

// FuzzCSVSplit reads arbitrary CSV bytes cut at arbitrary line boundaries,
// the bits of cut choosing which: the ranges read in order must yield the
// single reader's samples bit for bit, or its exact error.
func FuzzCSVSplit(f *testing.F) {
	var v2 bytes.Buffer
	if err := WriteSamples(&v2, testTrace(300, 21), 2.5); err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{v2.Bytes(), bytes.ReplaceAll(v2.Bytes(), []byte("\n"), []byte("\r\n"))}
	bad := bytes.Split(v2.Bytes(), []byte("\n"))
	bad[200] = append([]byte(`"`), bad[200]...)
	seeds = append(seeds, bytes.Join(bad, []byte("\n")))
	for _, c := range csvDialectCases() {
		seeds = append(seeds, []byte(c.in))
	}
	for _, s := range seeds {
		for _, cut := range []uint64{0, 1<<64 - 1, 0x5555555555555555, 0x8421084210842108} {
			f.Add(s, cut)
		}
	}
	f.Add([]byte(strings.Repeat("\n", 5)+csvLines(csvHeader, csvRow1, "", csvRow1, csvRow2)), uint64(0xff))

	f.Fuzz(func(t *testing.T, data []byte, cut uint64) {
		want, wantWeight, wantErr := ReadSamples(bytes.NewReader(data))
		h, err := ReadHeader(bytes.NewReader(data))
		if err != nil {
			if wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("header error %v, reader error %v", err, wantErr)
			}
			return
		}
		if h.Format == FormatBinaryV4 {
			return
		}
		var cuts []int64
		for i, at := range lineStarts(data, h.Data.Offset) {
			if cut>>(i%64)&1 == 1 {
				cuts = append(cuts, at)
			}
		}
		got, err := readSplit(data, h, cuts)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("split at %v: error %v, whole-file error %v", cuts, err, wantErr)
		}
		if err != nil {
			return
		}
		if h.Weight != wantWeight {
			t.Fatalf("header weight %v, reader weight %v", h.Weight, wantWeight)
		}
		if len(got) != len(want) {
			t.Fatalf("split at %v: %d samples, whole-file %d", cuts, len(got), len(want))
		}
		for i := range got {
			if !identical(got[i], want[i]) {
				t.Fatalf("split at %v: sample %d = %+v, whole-file %+v", cuts, i, got[i], want[i])
			}
		}
	})
}
