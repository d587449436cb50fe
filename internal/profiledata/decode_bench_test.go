package profiledata

// Micro-benchmark isolating the block-decode kernel: in-memory blocks
// through the batched column decoder, with no I/O.

import (
	"bytes"
	"testing"

	"drbw/internal/cache"
	"drbw/internal/pebs"
)

// benchBlocks encodes n samples and returns the per-block payloads with
// their decoder seed entries and level dictionary.
func benchBlocks(b *testing.B, n int) ([][]byte, []IndexEntry, []cache.Level) {
	samples := testTrace(n, 7)
	var buf bytes.Buffer
	if err := WriteSamplesBinary(&buf, samples, 2, DefaultBlockSize); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	it, err := NewIndexedTrace(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([][]byte, it.Blocks())
	entries := make([]IndexEntry, it.Blocks())
	for i := range payloads {
		e := it.Entry(i)
		entries[i] = e
		end := it.idx.DataEnd
		if i+1 < it.Blocks() {
			end = it.Entry(i + 1).Offset
		}
		blk := data[e.Offset:end]
		// Skip the two uvarint block-header fields to reach the payload.
		p := payloadReader{buf: blk}
		if _, err := p.uvarint(); err != nil {
			b.Fatal(err)
		}
		plen, err := p.uvarint()
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = blk[p.pos : p.pos+int(plen)]
	}
	return payloads, entries, it.levels
}

func BenchmarkBlockDecode(b *testing.B) {
	const n = 1 << 20
	payloads, entries, levels := benchBlocks(b, n)
	out := make([]pebs.Sample, DefaultBlockSize)
	var scratch []uint64
	b.SetBytes(int64(n))
	for i := 0; i < b.N; i++ {
		for j, payload := range payloads {
			e := &entries[j]
			d := blockDecoder{prevTime: e.PrevTime, prevAddr: e.PrevAddr, levels: levels}
			if err := d.decode(payload, out[:e.Count], &scratch); err != nil {
				b.Fatal(err)
			}
		}
	}
}
