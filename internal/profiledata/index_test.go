package profiledata

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestIndexRoundTrip: every block range of an indexed recording decodes to
// exactly the corresponding slice of a front-to-back read — single blocks,
// arbitrary contiguous ranges, and the whole file.
func TestIndexRoundTrip(t *testing.T) {
	for _, n := range []int{1, 3, 100, 8192, 20000} {
		for _, blockSize := range []int{1, 7, 4096, DefaultBlockSize} {
			samples := testTrace(n, int64(n)+int64(blockSize))
			var buf bytes.Buffer
			if err := WriteSamplesBinary(&buf, samples, 2.5, blockSize); err != nil {
				t.Fatalf("n=%d block=%d: %v", n, blockSize, err)
			}
			data := buf.Bytes()

			// The footer is invisible to the streaming reader.
			got, weight, err := ReadSamples(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("n=%d block=%d: streaming read of indexed file: %v", n, blockSize, err)
			}
			if weight != 2.5 || !reflect.DeepEqual(got, samples) {
				t.Fatalf("n=%d block=%d: streaming read differs", n, blockSize)
			}

			it, err := NewIndexedTrace(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatalf("n=%d block=%d: NewIndexedTrace: %v", n, blockSize, err)
			}
			if it.Weight() != 2.5 || it.TotalSamples() != n {
				t.Fatalf("n=%d block=%d: weight %v total %d", n, blockSize, it.Weight(), it.TotalSamples())
			}
			wantBlocks := (n + blockSize - 1) / blockSize
			if it.Blocks() != wantBlocks {
				t.Fatalf("n=%d block=%d: %d index entries, want %d", n, blockSize, it.Blocks(), wantBlocks)
			}

			// Entry metadata matches the samples it describes.
			pos := 0
			for b := 0; b < it.Blocks(); b++ {
				e := it.Entry(b)
				end := pos + e.Count
				if end > n {
					t.Fatalf("n=%d block=%d: entry %d overruns the trace", n, blockSize, b)
				}
				minT, maxT := samples[pos].Time, samples[pos].Time
				for _, s := range samples[pos:end] {
					minT, maxT = math.Min(minT, s.Time), math.Max(maxT, s.Time)
				}
				if e.MinTime != minT || e.MaxTime != maxT {
					t.Fatalf("n=%d block=%d: entry %d time range [%v,%v], want [%v,%v]", n, blockSize, b, e.MinTime, e.MaxTime, minT, maxT)
				}
				pos = end
			}
			if pos != n {
				t.Fatalf("n=%d block=%d: index covers %d samples, want %d", n, blockSize, pos, n)
			}

			// Every single-block range decodes to its exact slice, despite the
			// cross-block running deltas.
			pos = 0
			for b := 0; b < it.Blocks(); b++ {
				rr, err := it.RangeReader(b, b+1, nil)
				if err != nil {
					t.Fatalf("n=%d block=%d: RangeReader(%d): %v", n, blockSize, b, err)
				}
				part, err := rr.appendRemaining(nil)
				if err != nil {
					t.Fatalf("n=%d block=%d: range [%d,%d): %v", n, blockSize, b, b+1, err)
				}
				if !reflect.DeepEqual(part, samples[pos:pos+it.Entry(b).Count]) {
					t.Fatalf("n=%d block=%d: block %d decodes differently from the serial read", n, blockSize, b)
				}
				pos += it.Entry(b).Count
			}

			// Arbitrary contiguous multi-block ranges, including the full one.
			if nb := it.Blocks(); nb > 1 {
				for _, r := range [][2]int{{0, nb}, {1, nb}, {0, nb - 1}, {nb / 2, nb/2 + 1}, {nb / 3, 2 * nb / 3}} {
					if r[0] >= r[1] {
						continue
					}
					lo := 0
					for b := 0; b < r[0]; b++ {
						lo += it.Entry(b).Count
					}
					hi := lo
					for b := r[0]; b < r[1]; b++ {
						hi += it.Entry(b).Count
					}
					rr, err := it.RangeReader(r[0], r[1], nil)
					if err != nil {
						t.Fatalf("n=%d block=%d: RangeReader%v: %v", n, blockSize, r, err)
					}
					part, err := rr.appendRemaining(nil)
					if err != nil {
						t.Fatalf("n=%d block=%d: range %v: %v", n, blockSize, r, err)
					}
					if !reflect.DeepEqual(part, samples[lo:hi]) {
						t.Fatalf("n=%d block=%d: range %v decodes differently from the serial read", n, blockSize, r)
					}
				}
			}
		}
	}
}

// TestOpenIndexedTrace: the path-based opener works end to end, and invalid
// ranges are rejected.
func TestOpenIndexedTrace(t *testing.T) {
	samples := testTrace(1000, 5)
	path := filepath.Join(t.TempDir(), "samples.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSamplesBinary(f, samples, 4, 128); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	it, err := OpenIndexedTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	rr, err := it.RangeReader(0, it.Blocks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rr.appendRemaining(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, samples) {
		t.Fatal("full range decode differs from the written samples")
	}
	for _, r := range [][2]int{{-1, 1}, {0, it.Blocks() + 1}, {2, 2}, {3, 1}} {
		if _, err := it.RangeReader(r[0], r[1], nil); err == nil {
			t.Errorf("range %v accepted", r)
		}
	}
}

// TestIndexAbsent: a recording without a footer reports ErrNoIndex — CSV,
// and a v4 body cut off at its terminator — and still streams.
func TestIndexAbsent(t *testing.T) {
	samples := testTrace(500, 9)
	var csv, bin bytes.Buffer
	if err := WriteSamples(&csv, samples, 1); err != nil {
		t.Fatal(err)
	}
	if err := WriteSamplesBinary(&bin, samples, 1, 64); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"csv":        csv.Bytes(),
		"footerless": bin.Bytes()[:dataEnd(bin.Bytes())+1],
	} {
		if _, err := NewIndexedTrace(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrNoIndex) {
			t.Errorf("%s: got %v, want ErrNoIndex", name, err)
		}
		// And the recording itself still reads.
		if _, _, err := ReadSamples(bytes.NewReader(data)); err != nil {
			t.Errorf("%s: streaming read: %v", name, err)
		}
	}
}

// TestIndexTruncatedFooter: cutting bytes off the end must never panic; the
// indexed open fails cleanly, and as long as the body survived, the
// streaming reader is untouched.
func TestIndexTruncatedFooter(t *testing.T) {
	samples := testTrace(300, 13)
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, samples, 1.5, 32); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	footerLen := len(full) - dataEnd(full) - 1
	if footerLen <= indexTailLen {
		t.Fatalf("footer is only %d bytes", footerLen)
	}
	for cut := 1; cut <= footerLen+8 && cut < len(full); cut++ {
		data := full[:len(full)-cut]
		if _, err := NewIndexedTrace(bytes.NewReader(data), int64(len(data))); err == nil {
			t.Fatalf("cut=%d: truncated footer accepted", cut)
		}
		if cut <= footerLen {
			// Body and terminator intact: streaming read still works.
			got, _, err := ReadSamples(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("cut=%d: streaming read: %v", cut, err)
			}
			if !reflect.DeepEqual(got, samples) {
				t.Fatalf("cut=%d: streaming read differs", cut)
			}
		}
	}
}

// TestIndexCorruptFooter: targeted footer forgeries are all rejected by
// validation instead of driving the range readers off the rails.
func TestIndexCorruptFooter(t *testing.T) {
	samples := testTrace(400, 17)
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, samples, 1, 32); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	open := func(data []byte) error {
		_, err := NewIndexedTrace(bytes.NewReader(data), int64(len(data)))
		return err
	}

	// A nonzero header flags byte in front of an intact footer.
	data := append([]byte(nil), full...)
	data[len(binaryMagic)+1] = 1
	if open(data) == nil {
		t.Error("nonzero header flags accepted")
	}

	// Payload length pointing outside the file.
	data = append([]byte(nil), full...)
	binary.LittleEndian.PutUint64(data[len(data)-indexTailLen:], uint64(len(data)))
	if open(data) == nil {
		t.Error("oversized payload length accepted")
	}

	// Entry count larger than the payload can hold.
	data = append([]byte(nil), full...)
	plen := binary.LittleEndian.Uint64(data[len(data)-indexTailLen:])
	payloadStart := len(data) - indexTailLen - int(plen)
	data[payloadStart] = 0xff
	data[payloadStart+1] = 0xff
	data[payloadStart+2] = 0x7f
	if open(data) == nil {
		t.Error("inflated entry count accepted")
	}

	// A zeroed payload region (offsets collapse to the header).
	data = append([]byte(nil), full...)
	for i := payloadStart; i < len(data)-indexTailLen; i++ {
		data[i] = 0
	}
	if open(data) == nil {
		t.Error("zeroed index payload accepted")
	}

	// Sum of counts disagreeing with the header total: rewrite a genuine
	// index whose first entry claims one sample too many.
	idx, err := ReadBlockIndex(bytes.NewReader(full), int64(len(full)))
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]IndexEntry(nil), idx.Entries...)
	forged[0].Count++
	data = append([]byte(nil), full[:idx.DataEnd+1]...)
	rew := bytes.NewBuffer(data)
	bw := bufio.NewWriter(rew)
	if err := writeBlockIndex(bw, forged); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := open(rew.Bytes()); err == nil {
		t.Error("count/total mismatch accepted")
	} else if errors.Is(err, ErrNoIndex) {
		t.Error("count/total mismatch reported as ErrNoIndex")
	}
}

// TestAppendRemainingHintSizesWholeTrace is the regression test for the
// allocation hint clamp: a trace bigger than one block's worth of samples
// must still land in a single allocation when the input size vouches for
// the header's total. Pre-fix the hint was clamped to maxBlockSamples and
// the slice regrew through doubling.
func TestAppendRemainingHintSizesWholeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a >1M-sample trace")
	}
	n := maxBlockSamples + 3
	samples := testTrace(n, 23)
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, samples, 1, DefaultBlockSize); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadSamples(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d samples, want %d", len(got), n)
	}
	if cap(got) != n {
		t.Errorf("decoded slice capacity %d, want exactly %d (single hint-sized allocation)", cap(got), n)
	}
}

// TestAppendRemainingHintBoundsForgedHeader: a header claiming an enormous
// total over a tiny input must not allocate for the claim — the hint is
// bounded by the bytes actually present.
func TestAppendRemainingHintBoundsForgedHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, testTrace(4, 1), 1, DefaultBlockSize); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Forge the uvarint total (bytes 18..) to claim 2^40 samples. The
	// original total of 4 is a single byte; splice in a 6-byte varint.
	var forgedTotal [8]byte
	nn := binary.PutUvarint(forgedTotal[:], 1<<40)
	forged := append([]byte(nil), data[:18]...)
	forged = append(forged, forgedTotal[:nn]...)
	forged = append(forged, data[19:]...)

	sr, err := NewSampleReader(bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sr.appendRemaining(nil)
	if err == nil {
		t.Fatal("forged total accepted")
	}
	if cap(out) > len(forged) {
		t.Errorf("forged header allocated capacity %d from a %d-byte input", cap(out), len(forged))
	}
}
