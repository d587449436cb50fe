package profiledata

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// testTrace generates n samples shaped like real collector output:
// monotonically increasing times and whole-cycle latencies, clustered
// addresses.
func testTrace(n int, seed int64) []pebs.Sample {
	rng := rand.New(rand.NewSource(seed))
	levels := []cache.Level{cache.L1, cache.L2, cache.L3, cache.LFB, cache.MEM}
	out := make([]pebs.Sample, n)
	t := 0.0
	for i := range out {
		t += float64(rng.Intn(5000))
		out[i] = pebs.Sample{
			Time:     t,
			CPU:      topology.CPUID(rng.Intn(64)),
			Thread:   rng.Intn(32),
			Addr:     0x10000000 + uint64(rng.Intn(1<<26)),
			Level:    levels[rng.Intn(len(levels))],
			Latency:  float64(rng.Intn(600)),
			Write:    rng.Intn(3) == 0,
			SrcNode:  topology.NodeID(rng.Intn(4)),
			HomeNode: topology.NodeID(rng.Intn(4)),
		}
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 9, 8192, 20000} {
		for _, blockSize := range []int{1, 7, 4096, DefaultBlockSize} {
			samples := testTrace(n, int64(n)+1)
			if n > 4 {
				// The widest values mid-trace, and a time that runs
				// backwards.
				samples[2].Time = pebs.MaxTime
				samples[3].Latency = pebs.MaxLatency
				samples[4].Time = 0
			}
			var buf bytes.Buffer
			if err := WriteSamplesBinary(&buf, samples, 3.25, blockSize); err != nil {
				t.Fatalf("write n=%d block=%d: %v", n, blockSize, err)
			}
			got, weight, err := ReadSamples(&buf)
			if err != nil {
				t.Fatalf("read n=%d block=%d: %v", n, blockSize, err)
			}
			if weight != 3.25 {
				t.Fatalf("weight = %v, want 3.25", weight)
			}
			if len(got) != len(samples) {
				t.Fatalf("n=%d: decoded %d samples", n, len(got))
			}
			for i := range samples {
				if !reflect.DeepEqual(samples[i], got[i]) {
					t.Fatalf("n=%d block=%d sample %d:\n got %+v\nwant %+v",
						n, blockSize, i, got[i], samples[i])
				}
			}
		}
	}
}

// TestBinaryBlockSizeBounds: a block size outside [1, 2^20] is an error,
// and nothing is written.
func TestBinaryBlockSizeBounds(t *testing.T) {
	for _, bs := range []int{-1, 0, maxBlockSamples + 1} {
		var buf bytes.Buffer
		if err := WriteSamplesBinary(&buf, testTrace(5, 1), 1, bs); err == nil || buf.Len() != 0 {
			t.Errorf("block size %d: error %v, %d bytes written", bs, err, buf.Len())
		}
	}
}

// TestBinaryWeightClampedToOne checks that a finite non-positive weight is
// written as 1 and that a NaN or infinite one is an error.
func TestBinaryWeightClampedToOne(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := WriteSamplesBinary(io.Discard, testTrace(5, 1), w, DefaultBlockSize); err == nil {
			t.Errorf("weight %v written", w)
		}
	}
	for _, w := range []float64{0, -3} {
		var buf bytes.Buffer
		if err := WriteSamplesBinary(&buf, testTrace(5, 1), w, DefaultBlockSize); err != nil {
			t.Fatal(err)
		}
		_, weight, err := ReadSamples(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if weight != 1 {
			t.Fatalf("weight %v written as %v, want 1", w, weight)
		}
	}
}

// TestBinaryCSVEquivalence is the cross-format property: any sample list
// the writers accept round-trips identically through both formats — same
// samples, same weight.
func TestBinaryCSVEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		samples := testTrace(997, seed)
		const weight = 16.5

		var csvBuf, binBuf bytes.Buffer
		if err := WriteSamples(&csvBuf, samples, weight); err != nil {
			t.Fatal(err)
		}
		if err := WriteSamplesBinary(&binBuf, samples, weight, DefaultBlockSize); err != nil {
			t.Fatal(err)
		}

		fromCSV, wc, err := ReadSamples(&csvBuf)
		if err != nil {
			t.Fatalf("csv read: %v", err)
		}
		fromBin, wb, err := ReadSamples(&binBuf)
		if err != nil {
			t.Fatalf("binary read: %v", err)
		}
		if wc != weight || wb != weight {
			t.Fatalf("weights: csv %v, binary %v, want %v", wc, wb, weight)
		}
		if !reflect.DeepEqual(fromCSV, fromBin) {
			t.Fatalf("seed %d: csv and binary decode differently", seed)
		}
		if !reflect.DeepEqual(fromBin, samples) {
			t.Fatalf("seed %d: binary decode differs from the original", seed)
		}
	}
}

// TestBinarySmallerThanCSV pins the acceptance bound: the columnar file,
// index footer included, is at least 2x smaller than the CSV on a
// realistic trace.
func TestBinarySmallerThanCSV(t *testing.T) {
	samples := testTrace(50000, 42)
	var csvBuf, binBuf bytes.Buffer
	if err := WriteSamples(&csvBuf, samples, 2); err != nil {
		t.Fatal(err)
	}
	if err := WriteSamplesBinary(&binBuf, samples, 2, DefaultBlockSize); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len()*2 > csvBuf.Len() {
		t.Fatalf("binary %d bytes vs csv %d bytes: less than 2x smaller", binBuf.Len(), csvBuf.Len())
	}
}

func TestSampleReaderFormats(t *testing.T) {
	samples := testTrace(10, 3)
	var v2, bin bytes.Buffer
	if err := WriteSamples(&v2, samples, 2); err != nil {
		t.Fatal(err)
	}
	if err := WriteSamplesBinary(&bin, samples, 2, DefaultBlockSize); err != nil {
		t.Fatal(err)
	}
	v1 := strings.SplitN(v2.String(), "\n", 2)[1] // drop the meta row

	cases := []struct {
		name, format string
		data         string
		weight       float64
	}{
		{"v1", FormatCSVv1, v1, 1},
		{"v2", FormatCSVv2, v2.String(), 2},
		{"binary", FormatBinaryV4, bin.String(), 2},
	}
	for _, tc := range cases {
		sr, err := NewSampleReader(strings.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sr.Format() != tc.format {
			t.Errorf("%s: format %q, want %q", tc.name, sr.Format(), tc.format)
		}
		if sr.Weight() != tc.weight {
			t.Errorf("%s: weight %v, want %v", tc.name, sr.Weight(), tc.weight)
		}
		var total int
		for {
			block, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			total += len(block)
		}
		if total != len(samples) {
			t.Errorf("%s: streamed %d samples, want %d", tc.name, total, len(samples))
		}
	}
}

// binaryWithBlockHeader builds a valid header followed by a hand-written
// block header, for decoder hardening tests.
func binaryWithBlockHeader(count, payloadLen uint64, payload []byte) []byte {
	var buf bytes.Buffer
	WriteSamplesBinary(&buf, nil, 1, DefaultBlockSize) // header, terminator, footer
	data := buf.Bytes()[:dataEnd(buf.Bytes())]         // drop the terminator and footer
	var v8 [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(v8[:], count)
	data = append(data, v8[:n]...)
	n = binary.PutUvarint(v8[:], payloadLen)
	data = append(data, v8[:n]...)
	return append(data, payload...)
}

func TestBinaryReadErrors(t *testing.T) {
	var valid bytes.Buffer
	if err := WriteSamplesBinary(&valid, testTrace(100, 9), 2, DefaultBlockSize); err != nil {
		t.Fatal(err)
	}
	vb := valid.Bytes()
	compressed := bytes.Clone(vb)
	compressed[len(binaryMagic)+1] = 1 // the flags bit retired flate recordings set

	cases := map[string][]byte{
		"magic only":           []byte(binaryMagic),
		"bad version":          append([]byte(binaryMagic), 9),
		"unknown flags":        append([]byte(binaryMagic), binaryVersion, 0xfe),
		"compressed flag":      compressed,
		"truncated weight":     append([]byte(binaryMagic), binaryVersion, 0, 1, 2, 3),
		"zero weight":          append([]byte(binaryMagic), binaryVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"empty dictionary":     binaryHeaderWithDict(nil),
		"unknown level name":   binaryHeaderWithDict([]string{"L9"}),
		"truncated dictionary": append(binaryHeaderWithDict(nil)[:len(binaryMagic)+11], 2, 2, 'L'),
		"missing terminator":   vb[:dataEnd(vb)],
		"lying sample count":   lyingCount(vb),
		"truncated block":      vb[:len(vb)/2],
		"trailing payload byte": binaryWithBlockHeader(1, 10,
			[]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}),
		"level outside dictionary": binaryWithBlockHeader(1, 9,
			[]byte{0, 0, 0, 0, 99, 0, 0, 0, 0}),
		"v3 magic":            append([]byte(binaryMagicV3), vb[len(binaryMagic):]...),
		"count over limit":    binaryWithBlockHeader(maxBlockSamples+1, 8*(maxBlockSamples+1), nil),
		"payload implausible": binaryWithBlockHeader(8, 3, []byte{1, 2, 3}),
		"payload oversized":   binaryWithBlockHeader(1, maxSampleEncoded*2+32, nil),
	}
	for name, data := range cases {
		if _, _, err := ReadSamples(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// dataEnd returns the offset of a v4 recording's body terminator, read
// from its footer.
func dataEnd(data []byte) int {
	idx, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		panic(err)
	}
	return int(idx.DataEnd)
}

// lyingCount rewrites a valid 100-sample file's header count hint to 99,
// which the reader must reject at the terminator.
func lyingCount(valid []byte) []byte {
	data := append([]byte(nil), valid...)
	off := len(binaryMagic) + 1 + 1 + 8 // version, flags, weight
	if data[off] != 100 {
		panic("lyingCount: expected a one-byte count of 100")
	}
	data[off] = 99
	return data
}

// binaryHeaderWithDict builds magic+version+flags+weight+count plus an
// arbitrary level dictionary.
func binaryHeaderWithDict(names []string) []byte {
	data := append([]byte(binaryMagic), binaryVersion, 0)
	var f8 [8]byte
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(1))
	data = append(data, f8[:]...)
	data = append(data, 0) // sample-count hint: unknown
	data = append(data, byte(len(names)))
	for _, n := range names {
		data = append(data, byte(len(n)))
		data = append(data, n...)
	}
	return data
}

// TestBinaryTruncationNeverOverAllocates feeds every prefix of a valid
// file that cuts its body, terminator included, to the streaming reader
// (which stops at the terminator and never reads the footer): all must
// fail cleanly without panicking, and a truncated prefix must never decode
// more samples than the bytes it contains can plausibly hold.
func TestBinaryTruncationNeverOverAllocates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, testTrace(500, 11), 2, 64); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut <= dataEnd(data); cut++ {
		samples, _, err := ReadSamples(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes read without error", cut, len(data))
		}
		if len(samples) != 0 {
			t.Fatalf("prefix of %d bytes returned %d samples alongside the error", cut, len(samples))
		}
	}
}

// TestSampleReaderBoundedAllocs pins the streaming property: re-reading a
// multi-block trace through shared Buffers costs a small constant number
// of allocations — the per-block sample and payload buffers are reused, so
// decode memory is bounded by the block size, not the trace.
func TestSampleReaderBoundedAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, testTrace(32*1024, 13), 2, 1024); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	bufs := &Buffers{}
	drain := func() {
		sr, err := NewSampleReaderBuffers(bytes.NewReader(data), bufs)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := sr.Next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	drain() // warm the shared buffers
	allocs := testing.AllocsPerRun(5, drain)
	if allocs > 16 {
		t.Fatalf("streaming a 32-block trace with warm buffers cost %.0f allocs, want <= 16", allocs)
	}
}
