package drbw_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"drbw"
	"drbw/internal/obs"
	"drbw/internal/profiledata"
)

// csvLines splits a CSV recording into its header (meta and column rows,
// with their '\n's) and its data rows, without theirs.
func csvLines(t *testing.T, path string) (header string, rows []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := profiledata.ReadHeader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSuffix(string(data[h.Data.Offset:]), "\n")
	return string(data[:h.Data.Offset]), strings.Split(body, "\n")
}

// writeFile writes data to a new file in a test directory.
func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// csvJobRanges analyzes path on the pool under the tracer and returns the
// byte range [from, to) of every job, in file order.
func csvJobRanges(t *testing.T, tl *drbw.Tool, path, oPath string) [][2]int64 {
	t.Helper()
	obs.StartTracing()
	_, err := tl.AnalyzeTraceFile(path, oPath)
	tr := obs.StopTracing()
	if err != nil {
		t.Fatal(err)
	}
	var ranges [][2]int64
	for _, root := range tr.Tree() {
		if root.Name != "analyze.trace_file" {
			continue
		}
		for _, c := range root.Children {
			if c.Name == "case" {
				ranges = append(ranges, [2]int64{c.Attrs["from"].(int64), c.Attrs["to"].(int64)})
			}
		}
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
	return ranges
}

// TestCSVSplitMatrix: a CSV recording cut into byte ranges — through CRLF
// endings, blank lines, quoted rows and a final line without '\n', with a
// cut target landing exactly on a '\n' — analyzes bit-identically to the
// reference analysis at every pool width.
func TestCSVSplitMatrix(t *testing.T) {
	tl := sharedTool(t)
	_, csvPath, oPath := recordTo(t, tl, 81, drbw.FormatCSV)
	td, err := drbw.LoadTrace(csvPath, oPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tl.AnalyzeTraceRef(td)
	if err != nil {
		t.Fatal(err)
	}

	header, rows := csvLines(t, csvPath)
	var body strings.Builder
	for i, row := range rows {
		if i%4999 == 17 {
			f := strings.Split(row, ",")
			f[1], f[4] = `"`+f[1]+`"`, `"`+f[4]+`"`
			row = strings.Join(f, ",")
		}
		body.WriteString(row)
		switch {
		case i == len(rows)-1:
		case i%7 == 3:
			body.WriteString("\r\n")
		default:
			body.WriteString("\n")
		}
		switch i % 13 {
		case 5:
			body.WriteString("\n")
		case 9:
			body.WriteString("\r\n")
		}
	}

	setProcs(t, 2)
	// Blank lines after the header shift the rows under the cut targets
	// until one target falls on a '\n'.
	var data string
	landing := int64(-1)
	for pad := 0; landing < 0; pad++ {
		if pad == 200 {
			t.Fatal("no cut target lands on a '\\n'")
		}
		data = header + strings.Repeat("\n", pad) + body.String()
		for _, target := range drbw.CSVCutTargets(int64(len(header)), int64(len(data))) {
			if data[target] == '\n' {
				landing = target
				break
			}
		}
	}
	path := writeFile(t, "split.csv", data)

	ranges := csvJobRanges(t, tl, path, oPath)
	if len(ranges) < 8 {
		t.Fatalf("%d ranges at pool width 2, want at least 8", len(ranges))
	}
	cut := false
	for _, r := range ranges {
		cut = cut || r[0] == landing+1
	}
	if !cut {
		t.Fatalf("no range starts just after the '\\n' at target %d: %v", landing, ranges)
	}

	for _, workers := range []int{1, 2, 4} {
		setProcs(t, workers)
		got, err := tl.AnalyzeTraceFile(path, oPath)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: report differs from the reference analysis\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestCSVSplitErrorsMatchWholeFile: a bad row deep in a split CSV
// recording fails with exactly the error a read of the whole file
// reports — the line numbers of a later range counted from the file's
// start, including a quoted row's parse error, and a bad row that a
// differently placed block boundary would have hidden behind a sample
// check.
func TestCSVSplitErrorsMatchWholeFile(t *testing.T) {
	tl := sharedTool(t)
	_, csvPath, oPath := recordTo(t, tl, 77, drbw.FormatCSV)
	header, rows := csvLines(t, csvPath)
	// Blank lines make physical line numbers run ahead of record numbers.
	join := func(rows []string) string {
		var b strings.Builder
		b.WriteString(header)
		for i, row := range rows {
			b.WriteString(row)
			b.WriteString("\n")
			if i%100 == 0 {
				b.WriteString("\r\n")
			}
		}
		return b.String()
	}
	setField := func(rows []string, i, field int, v string) {
		f := strings.Split(rows[i], ",")
		f[field] = v
		rows[i] = strings.Join(f, ",")
	}
	// deep is a row three quarters in, the first of a 1024-row block of a
	// whole-file read.
	deep := len(rows) * 3 / 4 / 1024 * 1024
	cases := []struct {
		name    string
		corrupt func(rows []string)
		want    string
	}{
		{"field", func(rows []string) { setField(rows, deep+5, 1, "x") }, "cpu: strconv.Atoi"},
		{"field count", func(rows []string) { rows[deep+5] += ",7" }, "has 10 fields"},
		{"quoted", func(rows []string) { rows[deep+5] = `"` + rows[deep+5] }, "parse error on line"},
		{"node then parse", func(rows []string) {
			setField(rows, deep, 8, "9")
			setField(rows, deep+1023, 1, "x")
		}, "cpu: strconv.Atoi"},
	}
	good := writeFile(t, "good.csv", join(rows))
	setProcs(t, 1)
	if ranges := csvJobRanges(t, tl, good, oPath); len(ranges) != 1 {
		t.Fatalf("a one-worker pool cut the recording into %d ranges, want 1: %v", len(ranges), ranges)
	}
	setProcs(t, 2)
	if ranges, at := csvJobRanges(t, tl, good, oPath), int64(len(join(rows[:deep]))); len(ranges) < 3 || at < ranges[2][0] {
		t.Fatalf("row %d starts at byte %d, want it in the third range or later: %v", deep, at, ranges)
	}
	for _, tc := range cases {
		bad := append([]string(nil), rows...)
		tc.corrupt(bad)
		data := join(bad)
		if len(data) < 1<<20 {
			t.Fatalf("%s: recording is %d bytes, want at least 1 MiB", tc.name, len(data))
		}
		path := writeFile(t, "bad.csv", data)

		// A one-worker pool reads the file as one range: the whole-file
		// read.
		setProcs(t, 1)
		_, whole := tl.AnalyzeTraceFile(path, oPath)
		setProcs(t, 2)
		if whole == nil || !strings.Contains(whole.Error(), tc.want) {
			t.Fatalf("%s: whole-file error = %v, want one containing %q", tc.name, whole, tc.want)
		}
		_, err := tl.AnalyzeTraceFile(path, oPath)
		if err == nil || err.Error() != whole.Error() {
			t.Fatalf("%s: split error = %v, want the whole-file error %v", tc.name, err, whole)
		}
	}
}

// TestCSVRecordingChangedMidAnalysis: a CSV recording rewritten after it
// was cut, so that a cut point no longer follows a '\n', fails the
// analysis instead of parsing a split row as two rows.
func TestCSVRecordingChangedMidAnalysis(t *testing.T) {
	tl := sharedTool(t)
	_, path, oPath := recordTo(t, tl, 82, drbw.FormatCSV)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 2)
	ranges := csvJobRanges(t, tl, path, oPath)
	if len(ranges) < 3 {
		t.Fatalf("%d ranges, want at least 3", len(ranges))
	}
	cut := ranges[len(ranges)/2][0]
	for name, mutate := range map[string]func([]byte) []byte{
		// "row\rrow\n" reads as one bad row whole, but as two good rows
		// cut after the '\r'.
		"joined rows": func(b []byte) []byte { b[cut-1] = '\r'; return b },
		// Whole lines cut off the end leave a range short of its end.
		"truncated": func(b []byte) []byte { return b[:cut+int64(bytes.IndexByte(b[cut:], '\n'))+1] },
	} {
		restore := drbw.SetTestHookPlanned(func(bool) {
			if err := os.WriteFile(path, mutate(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}
		})
		_, err := tl.AnalyzeTraceFile(path, oPath)
		restore()
		if err == nil || !strings.Contains(err.Error(), "changed during analysis") || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: error = %v, want the recording named as changed", name, err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tl.AnalyzeTraceFile(path, oPath); err != nil {
		t.Fatal(err)
	}
}
