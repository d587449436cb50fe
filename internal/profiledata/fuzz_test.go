package profiledata

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"drbw/internal/pebs"
)

// FuzzReadSamples drives the autodetecting decoder — CSV v1/v2 and binary
// v4 — with arbitrary bytes. Malformed or truncated input must come back
// as an error, never a panic; anything that does decode must hold whole
// cycles (pebs.Check) and re-encode and decode to the same samples (the
// decoder accepts nothing it cannot represent).
func FuzzReadSamples(f *testing.F) {
	samples := testTrace(300, 21)

	var v2 bytes.Buffer
	if err := WriteSamples(&v2, samples, 2.5); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v2.Bytes()[bytes.IndexByte(v2.Bytes(), '\n')+1:]) // v1: no meta row
	f.Add(v2.Bytes()[:v2.Len()/2])                          // truncated CSV

	var data []byte
	for _, blockSize := range []int{DefaultBlockSize, 64, 16, 1} {
		var bin bytes.Buffer
		if err := WriteSamplesBinary(&bin, samples, 2.5, blockSize); err != nil {
			f.Fatal(err)
		}
		data = bin.Bytes()
		f.Add(data)
		f.Add(data[:len(data)/2])            // truncated binary
		f.Add(data[:12])                     // truncated header
		f.Add(data[:len(data)-8])            // truncated index trailer
		f.Add(data[:len(data)-indexTailLen]) // footerless tail
		f.Add(data[:dataEnd(data)+1])        // footerless body
	}
	// Header flags seeds: the bit retired flate recordings set, and one
	// never defined, each over a valid one-block-per-sample recording.
	for _, flags := range []byte{1, 0x80} {
		flagged := bytes.Clone(data)
		flagged[len(binaryMagic)+1] = flags
		f.Add(flagged)
	}
	// Footer seeds: a retired footer magic, and targeted bit flips in the
	// checksum region (damaged sums must read as checksum errors or
	// ErrNoIndex, never as silently different samples).
	{
		var bin bytes.Buffer
		if err := WriteSamplesBinary(&bin, samples, 2.5, 16); err != nil {
			f.Fatal(err)
		}
		data := bin.Bytes()
		idx, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			f.Fatal(err)
		}
		legacy := bytes.Clone(data)
		copy(legacy[len(legacy)-len(indexMagic):], "DRBWIDX2")
		f.Add(legacy)
		for _, off := range []int{len(data) - indexTailLen - 1, len(data) - indexTailLen - 9, int(idx.DataEnd) + 2} {
			flipped := append([]byte(nil), data...)
			flipped[off] ^= 1
			f.Add(flipped)
		}
		// Lying-footer seeds: structurally valid footers whose
		// MinTime/MaxTime claims disagree with the decoded samples. The
		// entry times are not covered by the block checksums, so these open
		// cleanly here; the single-pass analysis upstream must catch the
		// disagreement, and nothing at this layer may panic.
		forge := func(mutate func([]IndexEntry)) {
			entries := append([]IndexEntry(nil), idx.Entries...)
			mutate(entries)
			var forged bytes.Buffer
			forged.Write(data[:idx.DataEnd+1])
			if err := WriteBlockIndex(&forged, entries); err != nil {
				f.Fatal(err)
			}
			f.Add(forged.Bytes())
		}
		forge(func(entries []IndexEntry) { entries[0].MinTime += 1 })
		forge(func(entries []IndexEntry) { entries[len(entries)-1].MaxTime += 1e9 })
		forge(func(entries []IndexEntry) {
			for i := range entries {
				entries[i].MinTime, entries[i].MaxTime = 0, 1
			}
		})
	}
	f.Add([]byte(binaryMagic))
	f.Add([]byte("time,cpu\n1,2\n"))
	// A weight the binary re-encoding cannot carry must not decode.
	f.Add([]byte("#drbw-samples,v2,weight,inf\n" + strings.Join(sampleHeader, ",") + "\n1,0,0,0x10,MEM,300,false,0,1\n"))
	f.Add([]byte{})
	// Whole-cycle rule seeds: CSV rows and binary v4 blocks whose time or
	// latency breaks it, and a v3 header.
	for _, row := range []string{
		"NaN,0,0,0x10,MEM,300,false,0,1", "1,0,0,0x10,MEM,NaN,false,0,1",
		"+Inf,0,0,0x10,MEM,300,false,0,1", "1,0,0,0x10,MEM,-Inf,false,0,1",
		"1.5,0,0,0x10,MEM,300,false,0,1", "1,0,0,0x10,MEM,300.5,false,0,1",
		"1,0,0,0x10,MEM,-300,false,0,1", "1,0,0,0x10,MEM,4294967296,false,0,1",
		"9007199254740994,0,0,0x10,MEM,300,false,0,1",
	} {
		f.Add([]byte(strings.Join(sampleHeader, ",") + "\n" + row + "\n"))
	}
	for _, col := range [][2]uint64{{zigzag(1<<53 + 1), 300}, {zigzag(-1), 300}, {2, 1 << 32}} {
		payload := binary.AppendUvarint(nil, col[0]) // time delta
		payload = append(payload, 0, 0, 0x20, 4)     // cpu, thread, addr 0x10, level MEM
		payload = binary.AppendUvarint(payload, col[1])
		payload = append(payload, 0, 0, 2) // write, src 0, home 1
		f.Add(append(binaryWithBlockHeader(1, uint64(len(payload)), payload), 0))
	}
	{
		var bin bytes.Buffer
		if err := WriteSamplesBinary(&bin, samples, 2.5, DefaultBlockSize); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(binaryMagicV3), bin.Bytes()[len(binaryMagic):]...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The indexed opener must never panic on arbitrary bytes. A footer
		// forged onto valid blocks may carry wrong seed state — then ranges
		// decode to *different* (but structurally valid) samples or fail —
		// so the only invariants asserted on untrusted input are memory
		// safety and per-entry count agreement.
		if it, err := NewIndexedTrace(bytes.NewReader(data), int64(len(data))); err == nil {
			for b := 0; b < it.Blocks(); b++ {
				rr, err := it.RangeReader(b, b+1, nil)
				if err != nil {
					t.Fatalf("validated index rejected range [%d,%d): %v", b, b+1, err)
				}
				part, err := rr.appendRemaining(nil)
				if err == nil && len(part) != it.Entry(b).Count {
					t.Fatalf("range [%d,%d) decoded %d samples, index claims %d", b, b+1, len(part), it.Entry(b).Count)
				}
			}
		}

		got, weight, err := ReadSamples(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !(weight > 0) {
			t.Fatalf("decoded weight %v is not positive", weight)
		}
		for i := range got {
			if err := pebs.Check(&got[i]); err != nil {
				t.Fatalf("decoded sample %d: %v", i, err)
			}
		}
		// Round-trip: whatever decoded must survive binary re-encoding
		// bit for bit, read front to back and through block ranges.
		var buf bytes.Buffer
		if err := WriteSamplesBinary(&buf, got, weight, 32); err != nil {
			t.Fatalf("re-encode of decoded samples failed: %v", err)
		}
		again, w2, err := ReadSamples(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if w2 != weight {
			t.Fatalf("weight changed across round-trip: %v != %v", w2, weight)
		}
		if len(again) != len(got) {
			t.Fatalf("sample count changed across round-trip: %d != %d", len(again), len(got))
		}
		for i := range got {
			if !sameSample(again[i], got[i]) {
				t.Fatalf("sample %d changed across round-trip", i)
			}
		}

		// Our own writer's index is trusted, so here full equivalence
		// holds.
		it, err := NewIndexedTrace(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("opening our own indexed encoding failed: %v", err)
		}
		var ranged []pebs.Sample
		for b := 0; b < it.Blocks(); b++ {
			rr, err := it.RangeReader(b, b+1, nil)
			if err != nil {
				t.Fatalf("range [%d,%d): %v", b, b+1, err)
			}
			if ranged, err = rr.appendRemaining(ranged); err != nil {
				t.Fatalf("range [%d,%d): %v", b, b+1, err)
			}
		}
		if len(ranged) != len(got) {
			t.Fatalf("ranged decode yields %d samples, want %d", len(ranged), len(got))
		}
		for i := range got {
			if !sameSample(ranged[i], got[i]) {
				t.Fatalf("sample %d changed across the indexed round-trip", i)
			}
		}
	})
}

// sameSample is field-by-field equality. Decoded samples hold whole
// cycles, never NaN, so float == serves; it counts -0 equal to 0, which a
// CSV "-0" latency becomes once re-encoded in binary.
func sameSample(a, b pebs.Sample) bool {
	return reflect.DeepEqual(a, b)
}

// FuzzReadObjects drives the objects-table reader with arbitrary bytes.
// Malformed input — including a range whose end wraps past 2^64 — must
// come back as an error, never a panic, and any table that does decode
// must write and read back to the same objects.
func FuzzReadObjects(f *testing.F) {
	var fixture bytes.Buffer
	if err := WriteObjects(&fixture, objectFixture()); err != nil {
		f.Fatal(err)
	}
	f.Add(fixture.Bytes())
	f.Add(fixture.Bytes()[:fixture.Len()/2])
	const header = "id,name,func,file,line,base,size\n"
	f.Add([]byte(header))
	f.Add([]byte(header + "1,\"a,\"\"b\"\"\",f,x.c,7,4096,16\n"))
	f.Add([]byte(header + "1,b,f,x.c,1,0xfffffffffffffff0,4096\n"))
	f.Add([]byte(header + "1,b,f,x.c,1,0xffffffffffffff00,255\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		objs, err := ReadObjects(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, o := range objs {
			if o.Size == 0 || o.Base+o.Size < o.Base {
				t.Fatalf("accepted object %+v", o)
			}
		}
		var buf bytes.Buffer
		if err := WriteObjects(&buf, objs); err != nil {
			t.Fatalf("decoded table does not re-encode: %v", err)
		}
		again, err := ReadObjects(&buf)
		if err != nil {
			t.Fatalf("re-encoded table does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, objs) {
			t.Fatalf("table changed across the round-trip:\n got %+v\nwant %+v", again, objs)
		}
	})
}

// FuzzReadBlockIndex drives the index footer parser on its own. A hostile
// footer must error, never panic or size anything past the bytes present;
// an index it accepts must be well formed, and OpenIndexedTrace on the
// same bytes must either reject the header in front of it or agree with
// it entry for entry.
func FuzzReadBlockIndex(f *testing.F) {
	samples := testTrace(300, 22)
	for _, blockSize := range []int{DefaultBlockSize, 16, 1} {
		var bin bytes.Buffer
		if err := WriteSamplesBinary(&bin, samples, 1.5, blockSize); err != nil {
			f.Fatal(err)
		}
		data := bin.Bytes()
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(data[len(data)-indexTailLen-40:])
		if _, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data))); err != nil {
			f.Fatal(err)
		}
		// A retired footer magic over the same footer.
		legacy := bytes.Clone(data)
		copy(legacy[len(legacy)-len(indexMagic):], "DRBWIDX1")
		f.Add(legacy)
		// Damaged footers: a huge payload length, a huge entry count, and
		// a flipped byte every four across the payload, several per entry.
		huge := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(huge[len(huge)-indexTailLen:], 1<<62)
		f.Add(huge)
		plen := int(binary.LittleEndian.Uint64(data[len(data)-indexTailLen:]))
		count := append([]byte(nil), data...)
		count[len(count)-indexTailLen-plen] = 0xff
		f.Add(count)
		for off := len(data) - indexTailLen - plen; off < len(data)-indexTailLen; off += 4 {
			flipped := append([]byte(nil), data...)
			flipped[off] ^= 0x81
			f.Add(flipped)
		}
	}
	f.Add([]byte(binaryMagic + strings.Repeat("\x00", 40) + indexMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		size := int64(len(data))
		idx, err := ReadBlockIndex(bytes.NewReader(data), size)
		path := filepath.Join(t.TempDir(), "recording.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		it, itErr := OpenIndexedTrace(path)
		if itErr == nil {
			defer it.Close()
		}
		if err != nil {
			if itErr == nil {
				t.Fatalf("OpenIndexedTrace accepted a footer ReadBlockIndex rejects: %v", err)
			}
			return
		}
		if idx.DataEnd <= int64(len(binaryMagic)) || idx.DataEnd >= size || int64(cap(idx.Entries))*minIndexEntryLen > size {
			t.Fatalf("accepted index ends its data at %d with room for %d entries in %d bytes", idx.DataEnd, cap(idx.Entries), size)
		}
		prev := int64(len(binaryMagic))
		for i, e := range idx.Entries {
			if e.Offset <= prev || e.Offset >= idx.DataEnd || e.Count <= 0 || e.Count > maxBlockSamples || !(e.MinTime <= e.MaxTime) || e.MaxTime > pebs.MaxTime {
				t.Fatalf("accepted entry %d: %+v after offset %d, data end %d", i, e, prev, idx.DataEnd)
			}
			prev = e.Offset
		}
		if itErr != nil {
			return
		}
		if it.Blocks() != len(idx.Entries) {
			t.Fatalf("OpenIndexedTrace has %d blocks, ReadBlockIndex %d", it.Blocks(), len(idx.Entries))
		}
		for i, e := range idx.Entries {
			if it.Entry(i) != e {
				t.Fatalf("entry %d: OpenIndexedTrace %+v, ReadBlockIndex %+v", i, it.Entry(i), e)
			}
		}
	})
}
