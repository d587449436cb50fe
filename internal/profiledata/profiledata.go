// Package profiledata serializes DR-BW profiles — PEBS samples and the
// allocation range table — so collection and analysis can run separately,
// the way the real tool is used: profile a production run once, analyze
// the recording as many times as needed (or feed in samples collected by
// another tool entirely, e.g. converted `perf mem` output).
//
// Two sample formats are supported, autodetected on read, so old
// recordings and shell-produced files keep working while large traces get
// a compact encoding:
//
// CSV (v1/v2) is line-oriented with a header, chosen so recordings can be
// produced and consumed by shell tooling:
//
//	samples:  #drbw-samples,v2,weight,<w>
//	          time,cpu,thread,addr,level,latency,write,src_node,home_node
//	objects:  id,name,func,file,line,base,size
//
// The accepted dialect is comma-separated with optional RFC 4180 quoting,
// LF or CRLF line endings (a trailing CR on a final unterminated line is
// dropped), and blank lines skipped; error messages number sample rows by
// record, blank lines not counted. No sample field may span lines. The
// reader works on bytes: it splits each row on commas (by encoding/csv
// when the row holds a quote) and reads a field spelled the way
// WriteSamples writes it (decimal digits, 0x-prefixed hex, the level
// names, true and false) without allocating. A field in any other spelling
// falls back to strconv, so "+3", "1e3", "0X1F" and decimal addresses read
// as strconv reads them. Since a row never spans
// lines, the data rows can also be read in byte ranges cut just after a
// '\n': ReadHeader says where they start, and NewCSVSectionReader reads
// one range, numbering rows and lines as a whole-file read would when told
// how many came before.
//
// The v2 samples file opens with a meta row naming the format version and
// the collector weight — the factor that scales the kept samples back to
// true counts when the collector bounded its memory (see
// pebs.Collector.Weight). Without it, a reloaded trace silently
// under-counts every count feature. v1 files, which lack the meta row and
// start directly with the header, are still read (their weight is taken as
// 1, matching collections that kept every sample). Addresses and bases are
// hexadecimal with an 0x prefix; levels are the strings L1, L2, L3, LFB,
// MEM. Source and home node are recorded at collection time (the profiler
// resolves them via the topology and the page tables while the process is
// alive; they cannot be reconstructed afterwards).
//
// Every format holds the time and latency of a sample as whole cycles, the
// way PEBS reports them. Both writers and the CSV reader apply pebs.Check,
// and the binary reader applies its bounds to the decoded integers, so a
// NaN, infinite, fractional, negative or out-of-range time or latency is an
// error naming the field and the value (and, in CSV, the line).
//
// Binary columnar (v4) is the compact format for large traces, written by
// WriteSamplesBinary and recognized on read by its "DRBWPD4\n" magic. The
// header carries the version, a flags byte (0; any other value is
// rejected), the collector weight, and a dictionary of level names; the
// body is a
// sequence of blocks, each a sample count, a payload length, and a payload
// holding one column per field. Timestamps and addresses are delta-encoded
// zigzag varints with deltas running across block boundaries; latencies
// are plain varints; levels are single dictionary indices; the write flags
// are packed eight to a byte, so decoding reproduces the samples bit for
// bit. v3 recordings are rejected with an error saying to re-record them.
// A zero sample count terminates the body, and the block index footer
// (index.go) follows it. The block structure is what makes streaming
// decode possible: SampleReader yields one block at a time and analysis
// memory stays bounded by the block size regardless of trace length.
package profiledata

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"drbw/internal/alloc"
	"drbw/internal/cache"
	"drbw/internal/pebs"
)

var sampleHeader = []string{"time", "cpu", "thread", "addr", "level", "latency", "write", "src_node", "home_node"}

// metaTag opens the meta row of a versioned samples file.
const metaTag = "#drbw-samples"

// sampleVersion is the format version WriteSamples emits.
const sampleVersion = "v2"

// WriteSamples writes samples as CSV, preceded by the v2 meta row carrying
// the collector weight. A sample failing pebs.Check or a NaN or infinite
// weight is an error, and nothing is written; a finite non-positive weight
// is written as 1. No field it writes needs quoting, so each row is
// appended into one reused buffer.
func WriteSamples(w io.Writer, samples []pebs.Sample, weight float64) error {
	weight, err := writeWeight(weight)
	if err != nil {
		return err
	}
	if err := checkSamples(samples); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	row := append([]byte(nil), metaTag+","+sampleVersion+",weight,"...)
	row = strconv.AppendFloat(row, weight, 'g', -1, 64)
	row = append(row, '\n')
	row = append(row, strings.Join(sampleHeader, ",")...)
	row = append(row, '\n')
	if _, err := bw.Write(row); err != nil {
		return fmt.Errorf("profiledata: %w", err)
	}
	for i := range samples {
		s := &samples[i]
		row = strconv.AppendUint(row[:0], uint64(s.Time), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.CPU), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.Thread), 10)
		row = append(row, ",0x"...)
		row = strconv.AppendUint(row, s.Addr, 16)
		row = append(row, ',')
		row = append(row, s.Level.String()...)
		row = append(row, ',')
		row = strconv.AppendUint(row, uint64(s.Latency), 10)
		row = append(row, ',')
		row = strconv.AppendBool(row, s.Write)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.SrcNode), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.HomeNode), 10)
		row = append(row, '\n')
		if _, err := bw.Write(row); err != nil {
			return fmt.Errorf("profiledata: %w", err)
		}
	}
	return bw.Flush()
}

// writeWeight applies the writers' weight rule: a NaN or infinite weight
// is an error, since no reader accepts one, and a finite non-positive one
// is written as 1.
func writeWeight(w float64) (float64, error) {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return 0, fmt.Errorf("profiledata: weight %v is not finite", w)
	}
	if w <= 0 {
		return 1, nil
	}
	return w, nil
}

func parseLevel(s string) (cache.Level, error) {
	switch s {
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
	default:
		return 0, fmt.Errorf("unknown memory level %q", s)
	}
}

func parseAddr(s string) (uint64, error) {
	if len(s) > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}

// readMeta parses the v2 meta row into the collector weight.
func readMeta(rec []string) (float64, error) {
	if len(rec) != 4 || rec[2] != "weight" {
		return 0, fmt.Errorf("profiledata: malformed meta row %v, want %s,<version>,weight,<w>", rec, metaTag)
	}
	if rec[1] != sampleVersion {
		return 0, fmt.Errorf("profiledata: unsupported samples format version %q (this reader handles v1 and %s)", rec[1], sampleVersion)
	}
	w, err := strconv.ParseFloat(rec[3], 64)
	if err != nil {
		return 0, fmt.Errorf("profiledata: meta weight: %w", err)
	}
	if !(w > 0) || math.IsInf(w, 0) {
		return 0, fmt.Errorf("profiledata: meta weight %v is not positive and finite", w)
	}
	return w, nil
}

// ReadSamples parses a sample recording — binary v4 or CSV v1/v2, detected
// from the first bytes — and returns the samples plus the collector weight.
// v1 recordings (no meta row) read with weight 1.
func ReadSamples(r io.Reader) ([]pebs.Sample, float64, error) {
	sr, err := NewSampleReader(r)
	if err != nil {
		return nil, 0, err
	}
	out, err := sr.appendRemaining(nil)
	if err != nil {
		return nil, 0, err
	}
	return out, sr.Weight(), nil
}

var objectHeader = []string{"id", "name", "func", "file", "line", "base", "size"}

// WriteObjects writes the allocation range table as CSV. Freed objects are
// skipped: their ranges no longer attribute.
func WriteObjects(w io.Writer, objects []alloc.Object) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(objectHeader); err != nil {
		return fmt.Errorf("profiledata: %w", err)
	}
	for _, o := range objects {
		if o.Freed {
			continue
		}
		rec := []string{
			strconv.Itoa(int(o.ID)),
			o.Name,
			o.Site.Func,
			o.Site.File,
			strconv.Itoa(o.Site.Line),
			"0x" + strconv.FormatUint(o.Base, 16),
			strconv.FormatUint(o.Size, 10),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("profiledata: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadObjects parses an allocation range table.
func ReadObjects(r io.Reader) ([]alloc.Object, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(objectHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("profiledata: reading header: %w", err)
	}
	for i, h := range objectHeader {
		if header[i] != h {
			return nil, fmt.Errorf("profiledata: header column %d is %q, want %q", i, header[i], h)
		}
	}
	var out []alloc.Object
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("profiledata: line %d: %w", line, err)
		}
		var o alloc.Object
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("profiledata: line %d id: %w", line, err)
		}
		o.ID = alloc.ObjectID(id)
		o.Name = rec[1]
		o.Site.Func = rec[2]
		o.Site.File = rec[3]
		if o.Site.Line, err = strconv.Atoi(rec[4]); err != nil {
			return nil, fmt.Errorf("profiledata: line %d line-number: %w", line, err)
		}
		if o.Base, err = parseAddr(rec[5]); err != nil {
			return nil, fmt.Errorf("profiledata: line %d base: %w", line, err)
		}
		if o.Size, err = strconv.ParseUint(rec[6], 10, 64); err != nil {
			return nil, fmt.Errorf("profiledata: line %d size: %w", line, err)
		}
		if o.Size == 0 {
			return nil, fmt.Errorf("profiledata: line %d: zero-size object", line)
		}
		if o.Base+o.Size < o.Base {
			return nil, fmt.Errorf("profiledata: line %d: object at %#x of size %d ends past 2^64", line, o.Base, o.Size)
		}
		out = append(out, o)
	}
	return out, nil
}

// Table is a standalone attribution range table built from a recorded
// object list; it satisfies diagnose.Attributor for offline analysis.
type Table struct {
	objects []alloc.Object // sorted by base
	byID    map[alloc.ObjectID]alloc.Object
}

// NewTable builds a table, rejecting overlapping ranges.
func NewTable(objects []alloc.Object) (*Table, error) {
	t := &Table{byID: make(map[alloc.ObjectID]alloc.Object, len(objects))}
	t.objects = append(t.objects, objects...)
	sort.Slice(t.objects, func(i, j int) bool { return t.objects[i].Base < t.objects[j].Base })
	for i, o := range t.objects {
		if _, dup := t.byID[o.ID]; dup {
			return nil, fmt.Errorf("profiledata: duplicate object id %d", o.ID)
		}
		t.byID[o.ID] = o
		if i > 0 {
			prev := t.objects[i-1]
			if prev.Base+prev.Size > o.Base {
				return nil, fmt.Errorf("profiledata: objects %q and %q overlap", prev.Name, o.Name)
			}
		}
	}
	return t, nil
}

// Lookup implements diagnose.Attributor.
func (t *Table) Lookup(addr uint64) (alloc.ObjectID, bool) {
	idx := sort.Search(len(t.objects), func(i int) bool { return t.objects[i].Base > addr })
	if idx == 0 {
		return alloc.NoObject, false
	}
	o := t.objects[idx-1]
	if addr >= o.Base+o.Size {
		return alloc.NoObject, false
	}
	return o.ID, true
}

// Object implements diagnose.Attributor.
func (t *Table) Object(id alloc.ObjectID) alloc.Object { return t.byID[id] }

// Len returns the number of ranges.
func (t *Table) Len() int { return len(t.objects) }

// SlotID returns the ID of the object in slot, the slot-th range in base
// order (0..Len()-1).
func (t *Table) SlotID(slot int) alloc.ObjectID { return t.objects[slot].ID }
