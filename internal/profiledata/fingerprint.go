package profiledata

// Content fingerprints for recordings.
//
// The result cache keys cached analyses by what a recording *contains*, not
// where it lives or when it was written. For an indexed recording the
// content is already summarized: the header fields fix the weight, sample
// count and level dictionary, and every block's payload bytes are pinned
// by its index checksum. Hashing that summary identifies the recording in
// O(index bytes) — a few hundred bytes of I/O for a gigabyte trace —
// instead of rehashing the whole file. Everything else (CSV, objects
// tables, foreign files, and a v4 recording whose footer is missing or
// damaged, which analysis rejects) falls back to a streaming SHA-256 of
// the raw bytes.
//
// The two forms hash different material, so they carry distinct domain
// prefixes: the same file always fingerprints the same way through the same
// path, and the index form can never collide with the full form by
// construction.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
)

// Domain prefixes for the two fingerprint forms.
const (
	fingerprintIndexSchema = "drbw.tracefp.index/1\n"
	fingerprintFullSchema  = "drbw.tracefp.full/1\n"
)

// Fingerprint returns a stable hex identity of the recording's content,
// derived from the header and the per-block index checksums.
func (it *IndexedTrace) Fingerprint() string {
	h := sha256.New()
	io.WriteString(h, fingerprintIndexSchema)
	writeU64(h, math.Float64bits(it.weight))
	writeU64(h, it.total)
	writeU64(h, uint64(len(it.levels)))
	for _, lvl := range it.levels {
		io.WriteString(h, lvl.String())
		io.WriteString(h, "\n")
	}
	writeU64(h, uint64(len(it.idx.Entries)))
	for i := range it.idx.Entries {
		e := &it.idx.Entries[i]
		writeU64(h, uint64(e.Count))
		writeU64(h, e.Sum)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// FileFingerprint returns a stable hex identity of the file's content: the
// O(index bytes) index fingerprint when the file is an indexed recording,
// a streaming SHA-256 of the raw bytes otherwise.
func FileFingerprint(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("profiledata: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return "", fmt.Errorf("profiledata: %w", err)
	}
	if fi.Mode().IsRegular() {
		// NewIndexedTrace reads via ReadAt, so the streaming fallback below
		// still starts from offset zero when it declines.
		if it, err := NewIndexedTrace(f, fi.Size()); err == nil {
			return it.Fingerprint(), nil
		}
	}
	h := sha256.New()
	io.WriteString(h, fingerprintFullSchema)
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("profiledata: fingerprinting %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
