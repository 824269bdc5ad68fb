package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"skycube/internal/delta"
)

// writeSnapshotFile serializes a checkpoint — the captured updater state,
// batch replies included — to path, fsyncs it, and returns its size.
// The whole file is covered by a trailing CRC32C; a snapshot that fails
// that check is ignored by recovery in favour of an older one.
//
// Layout (little-endian): magic "SKYSNP01", u64 tail segment seq, u64
// epoch, u32 dims, u64 live, u64 len(vals) + vals, u32 dead count + ids,
// u32 pending-insert count + (id, cancelled, point) each, u32
// pending-delete count + ids, u32 batch count + (u16 id length, id, u32
// status, u32 body length, body) each in remembered order, then — only
// when the state carries an id scheme — u32 segment count n > 0 + n ×
// (i32 start, i32 base, i32 stride), and last a u32 CRC. A state without a
// scheme encodes exactly as before the section existed.
func writeSnapshotFile(path string, tailSeq uint64, st delta.RestoreState) (int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	w := &crcWriter{w: bufio.NewWriterSize(f, 1<<16)}
	encodeSnapshotBody(w, tailSeq, st)
	if w.err != nil {
		f.Close()
		return 0, w.err
	}
	if err := w.w.(*bufio.Writer).Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return w.n, nil
}

// encodeSnapshotBody writes the full snapshot wire encoding — fields and
// trailing whole-stream CRC — through w. It is shared by the on-disk
// checkpoint writer and the snapshot-stream encoder, so a served snapshot
// is byte-compatible with a checkpoint file.
func encodeSnapshotBody(w *crcWriter, tailSeq uint64, st delta.RestoreState) {
	w.bytes([]byte(snapMagic))
	w.u64(tailSeq)
	w.u64(st.Epoch)
	w.u32(uint32(st.Dims))
	w.u64(uint64(st.Live))
	w.u64(uint64(len(st.Vals)))
	for _, v := range st.Vals {
		w.u32(math.Float32bits(v))
	}
	w.u32(uint32(len(st.Dead)))
	for _, id := range st.Dead {
		w.u32(uint32(id))
	}
	w.u32(uint32(len(st.PendingInserts)))
	for _, op := range st.PendingInserts {
		w.u32(uint32(op.ID))
		c := byte(0)
		if op.Cancelled {
			c = 1
		}
		w.bytes([]byte{c})
		for _, v := range op.Point {
			w.u32(math.Float32bits(v))
		}
	}
	w.u32(uint32(len(st.PendingDeletes)))
	for _, id := range st.PendingDeletes {
		w.u32(uint32(id))
	}
	// Replies in remembered order, so eviction order survives restarts.
	w.u32(uint32(len(st.Replies)))
	for _, rep := range st.Replies {
		if len(rep.ID) > math.MaxUint16 && w.err == nil {
			w.err = fmt.Errorf("wal: batch id of %d bytes does not fit a snapshot", len(rep.ID))
		}
		w.u16(uint16(len(rep.ID)))
		w.bytes([]byte(rep.ID))
		w.u32(uint32(rep.Status))
		w.u32(uint32(len(rep.Body)))
		w.bytes(rep.Body)
	}
	if n := len(st.IDSegments); n > 0 {
		w.u32(uint32(n))
		for _, seg := range st.IDSegments {
			w.u32(uint32(seg.Start))
			w.u32(uint32(seg.Base))
			w.u32(uint32(seg.Stride))
		}
	}
	sum := w.crc
	w.u32(sum)
}

// crcWriter tracks a running CRC32C and byte count over the written
// stream, latching the first error.
type crcWriter struct {
	w   interface{ Write([]byte) (int, error) }
	crc uint32
	n   int64
	err error
}

func (c *crcWriter) bytes(b []byte) {
	if c.err != nil {
		return
	}
	c.crc = crc32.Update(c.crc, castagnoli, b)
	n, err := c.w.Write(b)
	c.n += int64(n)
	c.err = err
}

func (c *crcWriter) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	c.bytes(b[:])
}

func (c *crcWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.bytes(b[:])
}

func (c *crcWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.bytes(b[:])
}

// readSnapshotFile loads and verifies one checkpoint file. Any framing,
// bounds or CRC problem is an error — the caller falls back to an older
// snapshot or fails recovery.
func readSnapshotFile(path string) (*SnapshotStream, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(raw, path)
}

// decodeSnapshot verifies and decodes one snapshot encoding (a checkpoint
// file's bytes, or the same bytes received over a snapshot stream). path
// only labels errors.
func decodeSnapshot(raw []byte, path string) (*SnapshotStream, error) {
	if len(raw) < len(snapMagic)+4 || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("wal: %s: not a snapshot file", path)
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("wal: %s: snapshot CRC mismatch", path)
	}
	r := &byteReader{b: body[len(snapMagic):]}
	sd := &SnapshotStream{}
	sd.TailSeq = r.u64()
	sd.State.Epoch = r.u64()
	sd.State.Dims = int(r.u32())
	sd.State.Live = int(r.u64())
	if r.err == nil && (sd.State.Dims <= 0 || sd.State.Dims > math.MaxUint16) {
		return nil, fmt.Errorf("wal: %s: snapshot has %d dims", path, sd.State.Dims)
	}
	nVals := int(r.u64())
	if r.err == nil && (nVals < 0 || nVals > len(r.b)/4+1) {
		return nil, fmt.Errorf("wal: %s: snapshot declares %d values", path, nVals)
	}
	if r.err == nil {
		sd.State.Vals = make([]float32, nVals)
		for i := range sd.State.Vals {
			sd.State.Vals[i] = math.Float32frombits(r.u32())
		}
	}
	nDead := int(r.u32())
	if r.err == nil && nDead > len(r.b)/4 {
		return nil, fmt.Errorf("wal: %s: snapshot declares %d dead ids", path, nDead)
	}
	if r.err == nil {
		sd.State.Dead = make([]int32, nDead)
		for i := range sd.State.Dead {
			sd.State.Dead[i] = int32(r.u32())
		}
	}
	nPI := int(r.u32())
	for i := 0; i < nPI && r.err == nil; i++ {
		op := delta.PendingOp{ID: int32(r.u32())}
		switch r.u8() {
		case 0:
		case 1:
			op.Cancelled = true
		default:
			return nil, fmt.Errorf("wal: %s: pending insert %d has a bad cancel flag", path, op.ID)
		}
		op.Point = make([]float32, sd.State.Dims)
		for j := range op.Point {
			op.Point[j] = math.Float32frombits(r.u32())
		}
		sd.State.PendingInserts = append(sd.State.PendingInserts, op)
	}
	nPD := int(r.u32())
	for i := 0; i < nPD && r.err == nil; i++ {
		sd.State.PendingDeletes = append(sd.State.PendingDeletes, int32(r.u32()))
	}
	nB := int(r.u32())
	seen := make(map[string]bool)
	for i := 0; i < nB && r.err == nil; i++ {
		rep := delta.BatchReply{ID: string(r.take(int(r.u16())))}
		rep.Status = int(r.u32())
		rep.Body = append([]byte(nil), r.take(int(r.u32()))...)
		if r.err == nil && seen[rep.ID] {
			return nil, fmt.Errorf("wal: %s: batch %q remembered twice", path, rep.ID)
		}
		seen[rep.ID] = true
		sd.State.Replies = append(sd.State.Replies, rep)
	}
	if r.err == nil && len(r.b) > 0 {
		// The optional id-scheme section: an encoder never writes it empty,
		// so a zero count is corruption, not a missing scheme.
		nSeg := int(r.u32())
		if r.err == nil && (nSeg == 0 || nSeg > len(r.b)/12) {
			return nil, fmt.Errorf("wal: %s: snapshot declares %d id segments", path, nSeg)
		}
		for i := 0; i < nSeg && r.err == nil; i++ {
			sd.State.IDSegments = append(sd.State.IDSegments, delta.IDSegment{
				Start: int32(r.u32()), Base: int32(r.u32()), Stride: int32(r.u32()),
			})
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("wal: %s: %v", path, r.err)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("wal: %s: %d trailing bytes", path, len(r.b))
	}
	return sd, nil
}

// byteReader consumes little-endian fields from a byte slice, latching the
// first out-of-bounds read as an error.
type byteReader struct {
	b   []byte
	err error
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = fmt.Errorf("truncated snapshot (want %d bytes, have %d)", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *byteReader) u8() byte {
	b := r.take(1)
	if r.err != nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u16() uint16 {
	b := r.take(2)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
