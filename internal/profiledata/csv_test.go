package profiledata

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// readSamplesOracle is the CSV sample reader as it stood on encoding/csv:
// the header and meta-row handling of NewSampleReader and the row loop of
// nextCSV, kept verbatim as the reference the byte-level scanner must
// agree with. It returns the samples, weight and format, or the error the
// scanner must reproduce.
func readSamplesOracle(r io.Reader) ([]pebs.Sample, float64, string, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // the meta row is shorter than the data rows
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, 0, "", fmt.Errorf("profiledata: reading header: %w", err)
	}
	weight, format, line := 1.0, FormatCSVv1, 2
	if len(header) > 0 && header[0] == metaTag {
		if weight, err = readMeta(header); err != nil {
			return nil, 0, "", err
		}
		if header, err = cr.Read(); err != nil {
			return nil, 0, "", fmt.Errorf("profiledata: reading header: %w", err)
		}
		format = FormatCSVv2
		line = 3
	}
	if len(header) != len(sampleHeader) {
		return nil, 0, "", fmt.Errorf("profiledata: header has %d columns, want %d", len(header), len(sampleHeader))
	}
	for i, h := range sampleHeader {
		if header[i] != h {
			return nil, 0, "", fmt.Errorf("profiledata: header column %d is %q, want %q", i, header[i], h)
		}
	}
	var out []pebs.Sample
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, weight, format, nil
		}
		if err != nil {
			return nil, 0, "", fmt.Errorf("profiledata: line %d: %w", line, err)
		}
		if len(rec) != len(sampleHeader) {
			return nil, 0, "", fmt.Errorf("profiledata: line %d has %d fields, want %d", line, len(rec), len(sampleHeader))
		}
		var s pebs.Sample
		if err := parseSampleRow(rec, line, &s); err != nil {
			return nil, 0, "", err
		}
		out = append(out, s)
		line++
	}
}

// parseSampleRow parses one CSV data row into s: each field as strconv
// reads it, then the whole-cycle rule on time and latency.
func parseSampleRow(rec []string, line int, s *pebs.Sample) error {
	var err error
	if s.Time, err = strconv.ParseFloat(rec[0], 64); err != nil {
		return fmt.Errorf("profiledata: line %d time: %w", line, err)
	}
	cpu, err := strconv.Atoi(rec[1])
	if err != nil {
		return fmt.Errorf("profiledata: line %d cpu: %w", line, err)
	}
	s.CPU = topology.CPUID(cpu)
	if s.Thread, err = strconv.Atoi(rec[2]); err != nil {
		return fmt.Errorf("profiledata: line %d thread: %w", line, err)
	}
	if s.Addr, err = parseAddr(rec[3]); err != nil {
		return fmt.Errorf("profiledata: line %d addr: %w", line, err)
	}
	if s.Level, err = parseLevel(rec[4]); err != nil {
		return fmt.Errorf("profiledata: line %d: %w", line, err)
	}
	if s.Latency, err = strconv.ParseFloat(rec[5], 64); err != nil {
		return fmt.Errorf("profiledata: line %d latency: %w", line, err)
	}
	if s.Write, err = strconv.ParseBool(rec[6]); err != nil {
		return fmt.Errorf("profiledata: line %d write: %w", line, err)
	}
	src, err := strconv.Atoi(rec[7])
	if err != nil {
		return fmt.Errorf("profiledata: line %d src_node: %w", line, err)
	}
	home, err := strconv.Atoi(rec[8])
	if err != nil {
		return fmt.Errorf("profiledata: line %d home_node: %w", line, err)
	}
	s.SrcNode, s.HomeNode = topology.NodeID(src), topology.NodeID(home)
	if err := pebs.Check(s); err != nil {
		return fmt.Errorf("profiledata: line %d: %w", line, err)
	}
	return nil
}

const (
	csvMeta   = "#drbw-samples,v2,weight,2.5"
	csvHeader = "time,cpu,thread,addr,level,latency,write,src_node,home_node"
	csvRow1   = "1000,3,1,0x10000000,MEM,612,false,1,0"
	csvRow2   = "2000,17,9,0x10200040,L1,4,true,2,2"
)

var (
	csvSample1 = pebs.Sample{Time: 1000, CPU: 3, Thread: 1, Addr: 0x10000000, Level: cache.MEM, Latency: 612, SrcNode: 1, HomeNode: 0}
	csvSample2 = pebs.Sample{Time: 2000, CPU: 17, Thread: 9, Addr: 0x10200040, Level: cache.L1, Latency: 4, Write: true, SrcNode: 2, HomeNode: 2}
)

// csvLines joins lines with LF and a final LF.
func csvLines(lines ...string) string { return strings.Join(lines, "\n") + "\n" }

// dialectCase is one CSV input with its expected outcome: the weight and
// samples when it is accepted, or the error prefix when it is rejected.
type dialectCase struct {
	name   string
	in     string
	weight float64
	want   []pebs.Sample
	err    string
}

// csvDialectCases covers the dialect quirks of the CSV sample format:
// line endings, blank lines, quoting, long lines, both header versions,
// and the field spellings outside the shapes WriteSamples emits.
func csvDialectCases() []dialectCase {
	both := []pebs.Sample{csvSample1, csvSample2}
	long := strings.Repeat("0", 70000)
	return []dialectCase{
		{name: "v2", in: csvLines(csvMeta, csvHeader, csvRow1, csvRow2), weight: 2.5, want: both},
		{name: "v1", in: csvLines(csvHeader, csvRow1, csvRow2), weight: 1, want: both},
		{name: "header only", in: csvLines(csvMeta, csvHeader), weight: 2.5},
		{name: "crlf", in: strings.ReplaceAll(csvLines(csvMeta, csvHeader, csvRow1, csvRow2), "\n", "\r\n"), weight: 2.5, want: both},
		{name: "mixed endings", in: csvMeta + "\r\n" + csvHeader + "\n" + csvRow1 + "\r\n" + csvRow2 + "\n", weight: 2.5, want: both},
		{name: "blank lines", in: "\n\r\n" + csvMeta + "\n\n" + csvHeader + "\n\r\n\n" + csvRow1 + "\n\n" + csvRow2 + "\n\n\r\n", weight: 2.5, want: both},
		{name: "no final newline", in: csvMeta + "\n" + csvHeader + "\n" + csvRow1 + "\n" + csvRow2, weight: 2.5, want: both},
		{name: "no final newline after cr", in: csvMeta + "\n" + csvHeader + "\n" + csvRow1 + "\n" + csvRow2 + "\r", weight: 2.5, want: both},
		{name: "quoted fields", in: csvLines(`"#drbw-samples",v2,"weight",2.5`, `"time",cpu,thread,addr,level,latency,write,src_node,"home_node"`,
			`"1000",3,1,"0x10000000","MEM",612,false,1,"0"`, csvRow2), weight: 2.5, want: both},
		{name: "quoted crlf", in: csvMeta + "\r\n" + csvHeader + "\r\n" + `1000,3,1,0x10000000,"MEM",612,false,1,"0"` + "\r\n", weight: 2.5, want: both[:1]},
		{name: "quoted comma", in: csvLines(csvMeta, csvHeader, `"1,000",3,1,0x10,L1,5,false,0,0`), err: "profiledata: line 3 time:"},
		{name: "escaped quote", in: csvLines(csvMeta, csvHeader, csvRow1, `1,2,3,0x10,"L1""",5,false,0,0`), err: `profiledata: line 4: unknown memory level "L1\""`},
		{name: "bare quote", in: csvLines(csvMeta, "", csvHeader, csvRow1, "", `1"0,3,1,0x10,L1,5,false,0,0`),
			err: `profiledata: line 4: parse error on line 6, column 2: bare " in non-quoted-field`},
		{name: "quote after quoted field", in: csvLines(csvMeta, csvHeader, `"1"0,3,1,0x10,L1,5,false,0,0`),
			err: `profiledata: line 3: parse error on line 3, column 3: extraneous or missing " in quoted-field`},
		{name: "quote spans lines", in: csvLines(csvMeta, csvHeader, csvRow1, `2000,17,9,0x10200040,"L1`, `",4,true,2,2`), err: "profiledata: line 4"},
		{name: "unterminated quote", in: csvMeta + "\n" + csvHeader + "\n" + `1000,3,1,0x10000000,"MEM`, err: "profiledata: line 3"},
		{name: "quoted header spans lines", in: csvLines(`"time`, `",cpu`), err: "profiledata: "},
		{name: "long line accepted", in: csvLines(csvMeta, csvHeader, long+csvRow1, csvRow2), weight: 2.5, want: both},
		{name: "long line quoted", in: csvLines(csvMeta, csvHeader, `"`+long+`1000",3,1,0x10000000,MEM,612,false,1,0`), weight: 2.5, want: both[:1]},
		{name: "long line rejected", in: csvLines(csvMeta, csvHeader, csvRow1, "2000,17,"+long+"x,0x10,L1,5,false,0,0"), err: "profiledata: line 4 thread:"},
		{name: "long header", in: csvLines(csvMeta, csvHeader+","+long), err: "profiledata: header has 10 columns, want 9"},
		{name: "fallback spellings", in: csvLines(csvHeader,
			"+3,+3,007,0X1F,L2,1e3,True,+0,01",
			"1e3,-1,-2,4096,L3,1.2e1,1,0,0",
			"0x1p4,0,0,0x0000000000000000001,LFB,+0,F,0,0",
			"5e0,9223372036854775807,0,0xffffffffffffffff,MEM,0.0e3,t,0,0",
			"9007199254740992,0,0,0xFFFFFFFFFFFFFFFF,L1,0.0,FALSE,0,0",
			"0001000,0,0,18446744073709551615,L1,-0,false,0,0",
			"5.,0,0,0x10,L1,4294967295,false,0,0"),
			weight: 1, want: []pebs.Sample{
				{Time: 3, CPU: 3, Thread: 7, Addr: 0x1f, Level: cache.L2, Latency: 1000, Write: true, SrcNode: 0, HomeNode: 1},
				{Time: 1000, CPU: -1, Thread: -2, Addr: 4096, Level: cache.L3, Latency: 12, Write: true},
				{Time: 16, Addr: 1, Level: cache.LFB},
				{Time: 5, CPU: math.MaxInt, Addr: math.MaxUint64, Level: cache.MEM, Write: true},
				{Time: 1 << 53, Addr: math.MaxUint64, Level: cache.L1},
				{Time: 1000, Addr: math.MaxUint64, Level: cache.L1, Latency: math.Copysign(0, -1)},
				{Time: 5, Addr: 0x10, Level: cache.L1, Latency: 1<<32 - 1},
			}},
		{name: "NaN time", in: csvLines(csvHeader, csvRow1, "NaN,0,0,0x10,L1,5,false,0,0"), err: "profiledata: line 3: time NaN is not a whole cycle count"},
		{name: "infinite latency", in: csvLines(csvHeader, "1,0,0,0x10,L1,-Inf,false,0,0"), err: "profiledata: line 2: latency -Inf is not a whole cycle count"},
		{name: "fractional latency", in: csvLines(csvMeta, csvHeader, "1,0,0,0x10,L1,.5,false,0,0"), err: "profiledata: line 3: latency 0.5 is not a whole cycle count"},
		{name: "negative time", in: csvLines(csvHeader, "-5,0,0,0x10,L1,5,false,0,0"), err: "profiledata: line 2: time -5 is not a whole cycle count"},
		{name: "time past 2^53", in: csvLines(csvHeader, "9007199254740994,0,0,0x10,L1,5,false,0,0"), err: "profiledata: line 2: time 9.007199254740994e+15 is not a whole cycle count"},
		{name: "latency 2^32", in: csvLines(csvHeader, "1,0,0,0x10,L1,4294967296,false,0,0"), err: "profiledata: line 2: latency 4.294967296e+09 is not a whole cycle count"},
		{name: "cpu overflow", in: csvLines(csvHeader, "1,9223372036854775808,0,0x10,L1,5,false,0,0"), err: "profiledata: line 2 cpu:"},
		{name: "addr overflow", in: csvLines(csvHeader, "1,0,0,0x10000000000000000,L1,5,false,0,0"), err: "profiledata: line 2 addr:"},
		{name: "bare 0x", in: csvLines(csvHeader, "1,0,0,0x,L1,5,false,0,0"), err: "profiledata: line 2 addr:"},
		{name: "lowercase level", in: csvLines(csvHeader, "1,0,0,0x10,l1,5,false,0,0"), err: `profiledata: line 2: unknown memory level "l1"`},
		{name: "bad bool", in: csvLines(csvHeader, "1,0,0,0x10,L1,5,yes,0,0"), err: "profiledata: line 2 write:"},
		{name: "bad latency", in: csvLines(csvHeader, "1,0,0,0x10,L1,5x,false,0,0"), err: "profiledata: line 2 latency:"},
		{name: "bad latency dot", in: csvLines(csvHeader, "1,0,0,0x10,L1,.5.,false,0,0"), err: "profiledata: line 2 latency:"},
		{name: "bad src", in: csvLines(csvHeader, "1,0,0,0x10,L1,5,false,1_0,0"), err: "profiledata: line 2 src_node:"},
		{name: "bad home", in: csvLines(csvHeader, "1,0,0,0x10,L1,5,false,0,"), err: "profiledata: line 2 home_node:"},
		{name: "space in field", in: csvLines(csvMeta, csvHeader, " 1000,3,1,0x10,L1,5,false,0,0"), err: "profiledata: line 3 time:"},
		{name: "cr in field", in: csvLines(csvMeta, csvHeader, "10\r00,3,1,0x10,L1,5,false,0,0"), err: "profiledata: line 3 time:"},
		{name: "double cr", in: csvMeta + "\n" + csvHeader + "\n" + csvRow1 + "\r\r\n", err: "profiledata: line 3 home_node:"},
		{name: "few fields", in: csvLines(csvMeta, csvHeader, csvRow1, "1,2,3,0x10,L1,5,false,0"), err: "profiledata: line 4 has 8 fields, want 9"},
		{name: "trailing comma", in: csvLines(csvMeta, csvHeader, csvRow1+","), err: "profiledata: line 3 has 10 fields, want 9"},
		{name: "numbering skips blank lines", in: csvLines(csvHeader, "", csvRow1, "", "", "x,0,0,0x10,L1,5,false,0,0"), err: "profiledata: line 3 time:"},
		{name: "empty", in: "", err: "profiledata: reading header: EOF"},
		{name: "blank only", in: "\n\r\n\n", err: "profiledata: reading header: EOF"},
		{name: "meta only", in: csvLines(csvMeta), err: "profiledata: reading header: EOF"},
		{name: "wrong header", in: csvLines("time,cpu,thread,addr,level,latency,write,src,home_node"), err: `profiledata: header column 7 is "src", want "src_node"`},
		{name: "short meta", in: csvLines("#drbw-samples,v2,weight", csvHeader), err: "profiledata: malformed meta row"},
		{name: "bad meta weight", in: csvLines("#drbw-samples,v2,weight,NaN", csvHeader), err: "profiledata: meta weight NaN is not positive"},
		{name: "infinite meta weight", in: csvLines("#drbw-samples,v2,weight,inf", csvHeader), err: "profiledata: meta weight +Inf is not positive and finite"},
	}
}

// identical is sameSample that also tells the float fields apart by their
// bits, so -0 differs from 0.
func identical(a, b pebs.Sample) bool {
	return sameSample(a, b) && math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
		math.Float64bits(a.Latency) == math.Float64bits(b.Latency)
}

// TestCSVReaderDialect pins what the CSV sample reader accepts, what it
// decodes each accepted input to, and where it reports each rejection.
func TestCSVReaderDialect(t *testing.T) {
	lineErr := regexp.MustCompile(`^profiledata: line \d+`)
	for _, c := range csvDialectCases() {
		t.Run(c.name, func(t *testing.T) {
			got, weight, err := ReadSamples(strings.NewReader(c.in))
			if c.err != "" {
				if err == nil {
					t.Fatalf("accepted, want error %q", c.err)
				}
				msg := err.Error()
				if !strings.HasPrefix(msg, c.err) {
					t.Fatalf("error %q, want prefix %q", msg, c.err)
				}
				// "line 4" must not match an error on line 40.
				if lineErr.MatchString(c.err) && lineErr.FindString(msg) != lineErr.FindString(c.err) {
					t.Fatalf("error %q is not on %s", msg, lineErr.FindString(c.err))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if weight != c.weight {
				t.Errorf("weight %v, want %v", weight, c.weight)
			}
			if len(got) != len(c.want) {
				t.Fatalf("%d samples, want %d", len(got), len(c.want))
			}
			for i := range got {
				if !identical(got[i], c.want[i]) {
					t.Errorf("sample %d = %+v, want %+v", i, got[i], c.want[i])
				}
			}
		})
	}
}

// FuzzCSVSamples checks the CSV sample reader against readSamplesOracle on
// arbitrary bytes: both accept or both reject, and on accept they agree on
// weight, format and every sample bit for bit. Rejections agree on the
// reported line; on inputs without quotes the messages are identical.
func FuzzCSVSamples(f *testing.F) {
	for _, c := range csvDialectCases() {
		f.Add([]byte(c.in))
	}
	var v2 bytes.Buffer
	if err := WriteSamples(&v2, testTrace(300, 21), 2.5); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())

	lineOf := regexp.MustCompile(`^profiledata: line \d+`)
	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.HasPrefix(data, []byte(binaryMagic)) {
			return
		}
		want, wantWeight, wantFormat, wantErr := readSamplesOracle(bytes.NewReader(data))
		var got []pebs.Sample
		sr, err := NewSampleReader(bytes.NewReader(data))
		if err == nil {
			got, err = sr.appendRemaining(nil)
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("reader error %v, oracle error %v", err, wantErr)
		}
		if err != nil {
			if bytes.IndexByte(data, '"') < 0 {
				if err.Error() != wantErr.Error() {
					t.Fatalf("reader error %q, oracle error %q", err, wantErr)
				}
			} else if g, w := lineOf.FindString(err.Error()), lineOf.FindString(wantErr.Error()); g != w {
				t.Fatalf("reader error %q, oracle error %q: different lines", err, wantErr)
			}
			return
		}
		if sr.Weight() != wantWeight || sr.Format() != wantFormat {
			t.Fatalf("weight %v format %s, oracle %v %s", sr.Weight(), sr.Format(), wantWeight, wantFormat)
		}
		if len(got) != len(want) {
			t.Fatalf("%d samples, oracle %d", len(got), len(want))
		}
		for i := range got {
			if !identical(got[i], want[i]) {
				t.Fatalf("sample %d = %+v, oracle %+v", i, got[i], want[i])
			}
		}
	})
}

// TestCSVDecodeAllocs pins the scanner's steady state: once a Buffers has
// decoded one recording, streaming another through it allocates nothing
// per block. With every field quoted, a row costs only the one string
// encoding/csv makes of each record.
func TestCSVDecodeAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSamples(&buf, testTrace(12*csvBlockSize, 5), 2); err != nil {
		t.Fatal(err)
	}
	if allocs := csvBlockAllocs(t, buf.Bytes()); allocs != 0 {
		t.Errorf("Next allocates %v times per block, want 0", allocs)
	}
	quoted := "\"" + strings.ReplaceAll(strings.ReplaceAll(strings.TrimSuffix(buf.String(), "\n"), ",", `","`), "\n", "\"\n\"") + "\"\n"
	if allocs := csvBlockAllocs(t, []byte(quoted)); allocs > csvBlockSize {
		t.Errorf("Next allocates %v times per block of quoted rows, want at most %d", allocs, csvBlockSize)
	}
}

// csvBlockAllocs returns the allocations per Next of a CSV recording read
// through a Buffers that has already decoded it once.
func csvBlockAllocs(t *testing.T, data []byte) float64 {
	bufs := &Buffers{}
	open := func() *SampleReader {
		sr, err := NewSampleReaderBuffers(bytes.NewReader(data), bufs)
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	sr := open()
	for {
		if _, err := sr.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	sr = open()
	return testing.AllocsPerRun(10, func() {
		if block, err := sr.Next(); err != nil || len(block) != csvBlockSize {
			t.Fatalf("Next = %d samples, %v", len(block), err)
		}
	})
}

// writeSamplesReference is WriteSamples as it stood on csv.Writer, kept as
// the byte-level reference for the row appender.
func writeSamplesReference(w io.Writer, samples []pebs.Sample, weight float64) error {
	if !(weight > 0) {
		weight = 1
	}
	cw := csv.NewWriter(w)
	meta := []string{metaTag, sampleVersion, "weight", strconv.FormatFloat(weight, 'g', -1, 64)}
	if err := cw.Write(meta); err != nil {
		return fmt.Errorf("profiledata: %w", err)
	}
	if err := cw.Write(sampleHeader); err != nil {
		return fmt.Errorf("profiledata: %w", err)
	}
	for _, s := range samples {
		rec := []string{
			strconv.FormatFloat(s.Time, 'f', 0, 64),
			strconv.Itoa(int(s.CPU)),
			strconv.Itoa(s.Thread),
			"0x" + strconv.FormatUint(s.Addr, 16),
			s.Level.String(),
			strconv.FormatFloat(s.Latency, 'f', 0, 64),
			strconv.FormatBool(s.Write),
			strconv.Itoa(int(s.SrcNode)),
			strconv.Itoa(int(s.HomeNode)),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("profiledata: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// TestWriteSamplesBytes checks WriteSamples byte for byte against the
// csv.Writer reference, over a random trace and the edge values a
// recording can carry, and that a weight no reader accepts is an error.
func TestWriteSamplesBytes(t *testing.T) {
	samples := testTrace(2000, 9)
	nan, inf := math.NaN(), math.Inf(1)
	for _, v := range []float64{0, 1, 9, 10, 1e9, pebs.MaxLatency} {
		samples = append(samples,
			pebs.Sample{Time: v, CPU: -1, Thread: math.MaxInt, Addr: math.MaxUint64, Level: cache.MEM, Latency: v, SrcNode: -3, HomeNode: 7},
			pebs.Sample{Time: pebs.MaxTime - v, Level: cache.Level(9), Latency: pebs.MaxLatency - v, Write: true})
	}
	for _, weight := range []float64{nan, inf, -inf} {
		if err := WriteSamples(io.Discard, samples, weight); err == nil {
			t.Errorf("weight %v written", weight)
		}
	}
	for _, weight := range []float64{2.5, 1, 0, -3, 1e-300, 1.0 / 3} {
		var got, want bytes.Buffer
		if err := WriteSamples(&got, samples, weight); err != nil {
			t.Fatal(err)
		}
		if err := writeSamplesReference(&want, samples, weight); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
			for i := 0; i < len(g) && i < len(w); i++ {
				if g[i] != w[i] {
					t.Fatalf("weight %v: line %d is %q, reference %q", weight, i+1, g[i], w[i])
				}
			}
			t.Fatalf("weight %v: %d lines, reference %d", weight, len(g), len(w))
		}
	}
}
