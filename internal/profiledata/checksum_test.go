package profiledata

// Tests for the checksummed index footer and the content fingerprints
// built on it: the sums must pin the payload bytes exactly, corruption must
// surface as a checksum error on the damaged block only, and a footer
// closed by a retired magic must read as no index at all.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestFooterLegacyMagicIsNoIndex: the footers of v3 recordings (DRBWIDX1,
// DRBWIDX2) laid out their entries differently, so a footer closed by
// either magic is no index. The body still streams, and FileFingerprint
// falls back to the full-content hash.
func TestFooterLegacyMagicIsNoIndex(t *testing.T) {
	samples := testTrace(500, 31)
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, samples, 2, 64); err != nil {
		t.Fatal(err)
	}
	current := buf.Bytes()
	dir := t.TempDir()
	path := filepath.Join(dir, "current.bin")
	if err := os.WriteFile(path, current, 0o644); err != nil {
		t.Fatal(err)
	}
	fp, err := FileFingerprint(path)
	if err != nil {
		t.Fatal(err)
	}
	it, err := OpenIndexedTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if got := it.Fingerprint(); got != fp {
		t.Fatalf("FileFingerprint = %s, want the index fingerprint %s", fp, got)
	}

	for _, magic := range []string{"DRBWIDX1", "DRBWIDX2"} {
		legacy := bytes.Clone(current)
		copy(legacy[len(legacy)-len(indexMagic):], magic)
		if _, err := ReadBlockIndex(bytes.NewReader(legacy), int64(len(legacy))); err != ErrNoIndex {
			t.Fatalf("%s: ReadBlockIndex error %v, want ErrNoIndex", magic, err)
		}
		if _, err := NewIndexedTrace(bytes.NewReader(legacy), int64(len(legacy))); err != ErrNoIndex {
			t.Fatalf("%s: NewIndexedTrace error %v, want ErrNoIndex", magic, err)
		}
		dec, w, err := ReadSamples(bytes.NewReader(legacy))
		if err != nil || w != 2 || !reflect.DeepEqual(dec, samples) {
			t.Fatalf("%s: streaming read differs (err %v)", magic, err)
		}
		p := filepath.Join(dir, magic+".bin")
		if err := os.WriteFile(p, legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := FileFingerprint(p); err != nil || got == fp {
			t.Fatalf("%s: FileFingerprint = %s, %v; want a full-content hash unlike the index form", magic, got, err)
		}
	}
}

// TestFooterV2Sums: the written checksums are exactly the CRC-64 of each
// block's payload bytes as they sit in the file.
func TestFooterV2Sums(t *testing.T) {
	samples := testTrace(300, 37)
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, samples, 1, 32); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	idx, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range idx.Entries {
		p := data[e.Offset:]
		_, n1 := binary.Uvarint(p)
		plen, n2 := binary.Uvarint(p[n1:])
		payload := p[n1+n2 : n1+n2+int(plen)]
		if got := blockChecksum(payload); got != e.Sum {
			t.Fatalf("entry %d: recomputed checksum %#x, footer claims %#x", i, got, e.Sum)
		}
	}
}

// TestBlockChecksumDetectsCorruption: flipping one payload byte makes the
// damaged block's range read fail with a checksum error while every other
// block still reads cleanly.
func TestBlockChecksumDetectsCorruption(t *testing.T) {
	samples := testTrace(400, 41)
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, samples, 1, 64); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	idx, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) < 3 {
		t.Fatalf("want >= 3 blocks, got %d", len(idx.Entries))
	}
	victim := 1
	e := idx.Entries[victim]
	_, n1 := binary.Uvarint(data[e.Offset:])
	plen, n2 := binary.Uvarint(data[e.Offset+int64(n1):])
	data[e.Offset+int64(n1+n2)+int64(plen)/2] ^= 0x20

	it, err := NewIndexedTrace(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < it.Blocks(); b++ {
		rr, err := it.RangeReader(b, b+1, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = rr.appendRemaining(nil)
		if b == victim {
			if err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("block %d: corrupt payload read back as %v, want a checksum error", b, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("undamaged block %d: %v", b, err)
		}
	}
}

// TestFileFingerprintIdentity: the fingerprint is a function of content
// only — stable across identical writes and distinct paths, different the
// moment a sample or a byte changes, and defined for every input kind.
func TestFileFingerprintIdentity(t *testing.T) {
	samples := testTrace(200, 43)
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var a bytes.Buffer
	if err := WriteSamplesBinary(&a, samples, 1, 32); err != nil {
		t.Fatal(err)
	}
	fpOf := func(name string, data []byte) string {
		t.Helper()
		fp, err := FileFingerprint(write(name, data))
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	fpA := fpOf("a.bin", a.Bytes())
	if fpB := fpOf("b.bin", a.Bytes()); fpB != fpA {
		t.Fatal("identical content under a different path fingerprints differently")
	}

	changed := testTrace(200, 43)
	changed[100].Latency += 1
	var c bytes.Buffer
	if err := WriteSamplesBinary(&c, changed, 1, 32); err != nil {
		t.Fatal(err)
	}
	if fpOf("c.bin", c.Bytes()) == fpA {
		t.Fatal("a changed sample kept the same fingerprint")
	}

	var csv bytes.Buffer
	if err := WriteSamples(&csv, samples, 1); err != nil {
		t.Fatal(err)
	}
	fpCSV := fpOf("d.csv", csv.Bytes())
	if fpCSV == fpA {
		t.Fatal("CSV and indexed-binary encodings fingerprint identically")
	}
	if fpOf("e.csv", append(append([]byte(nil), csv.Bytes()...), '\n')) == fpCSV {
		t.Fatal("an appended byte kept the same full-hash fingerprint")
	}
}
