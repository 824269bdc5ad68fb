package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"skycube/internal/delta"
)

// fuzzSeedFrames builds one valid frame per record type — the seeds the
// committed corpus starts from.
func fuzzSeedFrames() [][]byte {
	recs := []Record{
		{Type: recInsert, Epoch: 3, ID: 41, Point: []float32{0.25, 1.5, -3}},
		{Type: recDelete, Epoch: 4, ID: 7},
		{Type: recFlush, Epoch: 5, Live: 1000},
		{Type: recCompact, Epoch: 6, Live: 999},
		{Type: recBatch, Epoch: 7, BatchID: "req-1", Status: 200, Body: []byte(`{"ids":[1]}`)},
	}
	var out [][]byte
	for i := range recs {
		payload, err := appendPayload(nil, &recs[i])
		if err != nil {
			panic(err)
		}
		out = append(out, AppendFrame(nil, payload))
	}
	return out
}

// FuzzWALDecode throws arbitrary bytes at the frame decoder and checks the
// properties recovery depends on: it never panics, it consumes monotonic
// prefixes, every accepted record re-encodes to exactly the bytes it was
// decoded from (so the format is canonical), and a mutated accepted frame
// is rejected unless the mutation misses the consumed prefix.
func FuzzWALDecode(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
	}
	chain := []byte{}
	for _, frame := range fuzzSeedFrames() {
		chain = append(chain, frame...)
	}
	f.Add(chain)
	f.Add(chain[:len(chain)-3])           // torn tail
	f.Add([]byte{})                       // empty
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length prefix
	f.Add(bytes.Repeat([]byte{0}, 64))    // zero frame: len 0 < 9
	f.Fuzz(func(t *testing.T, b []byte) {
		rest := b
		for len(rest) > 0 {
			r, next, err := DecodeFrame(rest)
			if err != nil {
				// The one distinction recovery relies on: a torn frame is
				// declared-length-exceeds-file, everything else corruption.
				break
			}
			consumed := rest[:len(rest)-len(next)]
			if len(next) >= len(rest) {
				t.Fatalf("decode consumed nothing (%d -> %d bytes)", len(rest), len(next))
			}

			// Canonical round trip: re-encoding the decoded record must
			// reproduce the consumed bytes exactly.
			payload, err := appendPayload(nil, &r)
			if err != nil {
				t.Fatalf("accepted record fails to re-encode: %v (%+v)", err, r)
			}
			if enc := AppendFrame(nil, payload); !bytes.Equal(enc, consumed) {
				t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", consumed, enc)
			}
			r2, err := DecodePayload(payload)
			if err != nil {
				t.Fatalf("re-decoding canonical payload: %v", err)
			}
			if r2.Type != r.Type || r2.Epoch != r.Epoch || r2.ID != r.ID ||
				r2.Live != r.Live || r2.BatchID != r.BatchID || r2.Status != r.Status ||
				!bytes.Equal(r2.Body, r.Body) || len(r2.Point) != len(r.Point) {
				t.Fatalf("payload round trip diverged: %+v vs %+v", r, r2)
			}
			for i := range r.Point {
				if math.Float32bits(r.Point[i]) != math.Float32bits(r2.Point[i]) {
					t.Fatalf("point bits diverged at %d: %x vs %x",
						i, math.Float32bits(r.Point[i]), math.Float32bits(r2.Point[i]))
				}
			}

			// CRC integrity: flipping any payload byte must be rejected.
			if len(consumed) > frameHeaderSize {
				mut := append([]byte(nil), consumed...)
				mut[frameHeaderSize] ^= 0x01
				if _, _, err := DecodeFrame(mut); err == nil {
					want := binary.LittleEndian.Uint32(consumed[4:8])
					got := crc32.Checksum(mut[frameHeaderSize:], castagnoli)
					if got != want {
						t.Fatalf("payload mutation accepted (crc %x vs %x)", got, want)
					}
				}
			}
			rest = next
		}
	})
}

// fuzzSeedSnapshots encodes snapshots carrying every optional section —
// pending inserts (one cancelled), pending deletes, batch replies and a
// two-segment id scheme — plus a bare one: the seeds FuzzSnapshotDecode
// starts from.
func fuzzSeedSnapshots() [][]byte {
	states := []delta.RestoreState{
		{Dims: 2, Epoch: 1, Live: 2, Vals: []float32{1, 2, 3, 4}},
		{
			Dims: 2, Epoch: 9, Live: 2, Vals: []float32{1, 2, 3, 4, 5, 6},
			Dead: []int32{1},
			PendingInserts: []delta.PendingOp{
				{ID: 3, Point: []float32{0.5, 7}},
				{ID: 4, Point: []float32{2, -1}, Cancelled: true},
			},
			PendingDeletes: []int32{0},
			Replies: []delta.BatchReply{
				{ID: "req-a", Status: 200, Body: []byte(`{"ids":[3]}`)},
				{ID: "req-b", Status: 400, Body: []byte("bad")},
				{ID: "req-c", Status: 500},
			},
			IDSegments: []delta.IDSegment{{Start: 0, Base: 1, Stride: 2}, {Start: 3, Base: 1 << 28, Stride: 1}},
		},
	}
	var out [][]byte
	for i, st := range states {
		raw, err := EncodeSnapshot(uint64(i+2), st)
		if err != nil {
			panic(err)
		}
		out = append(out, raw)
	}
	return out
}

// FuzzSnapshotDecode throws arbitrary bytes at the snapshot decoder — as
// given, and with the trailing CRC recomputed so that mutations reach the
// field decoders — and checks that it never panics and that every accepted
// snapshot re-encodes to exactly the bytes it was decoded from.
func FuzzSnapshotDecode(f *testing.F) {
	seeds := fuzzSeedSnapshots()
	for _, raw := range seeds {
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte(snapMagic))
	// The second seed's first pending insert with cancel flag 2: it must be
	// refused, not read as cancelled and re-encoded as 1. The flag follows
	// the header (magic, seq, epoch, dims, live: 36 bytes), 6 values, one
	// dead id, the pending-insert count and the insert's id.
	bad := append([]byte(nil), seeds[1]...)
	bad[36+8+6*4+4+4+4+4] = 2
	f.Add(bad)
	for _, raw := range badIDSchemeSnapshots(seeds) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		check := func(raw []byte) {
			ss, err := DecodeSnapshot(raw)
			if err != nil {
				return
			}
			enc, err := EncodeSnapshot(ss.TailSeq, ss.State)
			if err != nil {
				t.Fatalf("accepted snapshot fails to re-encode: %v", err)
			}
			if !bytes.Equal(enc, raw) {
				t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", raw, enc)
			}
		}
		check(b)
		if len(b) >= 4 {
			check(withCRC(append([]byte(nil), b[:len(b)-4]...)))
		}
	})
}

// badIDSchemeSnapshots derives two snapshots the decoder must refuse from
// the fuzz seeds: the bare seed with an id-scheme section that is present
// but empty (no encoder writes one), and the full seed cut mid-segment.
func badIDSchemeSnapshots(seeds [][]byte) [][]byte {
	bare, full := seeds[0], seeds[1]
	return [][]byte{
		withCRC(binary.LittleEndian.AppendUint32(append([]byte(nil), bare[:len(bare)-4]...), 0)),
		withCRC(append([]byte(nil), full[:len(full)-4-6]...)),
	}
}

// TestSnapshotIDSchemeSection: the id-scheme section round-trips, and an
// empty or truncated one is refused.
func TestSnapshotIDSchemeSection(t *testing.T) {
	seeds := fuzzSeedSnapshots()
	ss, err := DecodeSnapshot(seeds[1])
	if err != nil {
		t.Fatal(err)
	}
	if want := []delta.IDSegment{{Start: 0, Base: 1, Stride: 2}, {Start: 3, Base: 1 << 28, Stride: 1}}; !slices.Equal(ss.State.IDSegments, want) {
		t.Fatalf("decoded id scheme %+v, want %+v", ss.State.IDSegments, want)
	}
	for i, raw := range badIDSchemeSnapshots(seeds) {
		if _, err := DecodeSnapshot(raw); err == nil {
			t.Fatalf("bad id-scheme snapshot %d decoded", i)
		}
	}
}

// withCRC appends body's trailing snapshot CRC.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// TestSnapshotRejectsDuplicateBatch: a snapshot naming one batch id twice
// would leave the id in the eviction order twice; the decoder refuses it.
func TestSnapshotRejectsDuplicateBatch(t *testing.T) {
	raw, err := EncodeSnapshot(2, delta.RestoreState{
		Dims: 1, Epoch: 1, Live: 1, Vals: []float32{1},
		Replies: []delta.BatchReply{{ID: "twice", Status: 200}, {ID: "twice", Status: 400}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(raw); err == nil {
		t.Fatal("a snapshot naming batch \"twice\" twice decoded")
	}
}
