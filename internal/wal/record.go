// Package wal is the durability subsystem: an append-only, CRC32C-framed
// record log of every accepted mutation and epoch advance, epoch-snapshot
// checkpoints that bound replay work, and crash recovery that restores a
// delta.Updater to its exact pre-crash state.
//
// On-disk layout, all little-endian, under one data directory per node:
//
//	wal-<seq>.log    segment: 8-byte magic "SKYWAL01", u64 seq, then frames
//	snap-<seq>.ck    checkpoint: "SKYSNP01", u64 tail seq, state, u32 CRC
//
// A frame is `u32 len | u32 crc32c(payload) | payload`; a payload is
// `u8 type | u64 epoch | body`. The checkpoint's name and header carry the
// seq of the segment created at its capture point, so "the WAL tail" is
// exactly the segments with seq >= that number — truncating the log after
// a checkpoint is deleting whole older segments, never rewriting one.
//
// Recovery (Open) loads the newest snapshot whose whole-file CRC verifies,
// rebuilds the updater at the checkpoint epoch, and replays the tail
// through the ordinary mutation path. A torn final record — a crash mid
// group commit — is truncated with a warning; a CRC-corrupt record with
// intact records after it means the disk lied, and recovery refuses to
// serve rather than guess.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Record types. The epoch stamp on mutations is the epoch current when the
// mutation was accepted (diagnostic); on markers it is the epoch produced.
const (
	recInsert  = 1 // body: i32 id, u16 dims, dims × f32
	recDelete  = 2 // body: i32 id
	recFlush   = 3 // body: u64 live at the produced epoch
	recCompact = 4 // body: u64 live at the produced epoch
	recBatch   = 5 // body: u16 idLen, id, u32 status, u32 bodyLen, body
)

// maxRecordSize bounds one frame's payload; a length prefix beyond it is
// corruption (or a torn length word), never a legitimate record.
const maxRecordSize = 1 << 26 // 64 MiB

// frameHeaderSize is the per-record framing overhead: u32 len + u32 crc.
const frameHeaderSize = 8

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded WAL record.
type Record struct {
	Type  byte
	Epoch uint64

	// ID/Point: recInsert (Point nil for recDelete).
	ID    int32
	Point []float32

	// Live: recFlush/recCompact.
	Live uint64

	// BatchID/Status/Body: recBatch — a remembered idempotent-insert reply.
	BatchID string
	Status  int
	Body    []byte
}

// appendPayload appends r's payload encoding (type, epoch, body) to dst.
func appendPayload(dst []byte, r *Record) ([]byte, error) {
	dst = append(dst, r.Type)
	dst = binary.LittleEndian.AppendUint64(dst, r.Epoch)
	switch r.Type {
	case recInsert:
		if len(r.Point) == 0 || len(r.Point) > math.MaxUint16 {
			return nil, fmt.Errorf("wal: insert record with %d dims", len(r.Point))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.ID))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Point)))
		for _, v := range r.Point {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	case recDelete:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.ID))
	case recFlush, recCompact:
		dst = binary.LittleEndian.AppendUint64(dst, r.Live)
	case recBatch:
		if len(r.BatchID) == 0 || len(r.BatchID) > math.MaxUint16 {
			return nil, fmt.Errorf("wal: batch record with %d-byte id", len(r.BatchID))
		}
		if len(r.Body) > maxRecordSize/2 {
			return nil, fmt.Errorf("wal: batch record body of %d bytes", len(r.Body))
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.BatchID)))
		dst = append(dst, r.BatchID...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Status))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Body)))
		dst = append(dst, r.Body...)
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	return dst, nil
}

// AppendFrame appends the framed encoding of payload — `u32 len | u32
// crc32c(payload) | payload`, little-endian — to dst. It is the one framing
// convention of the repository's byte streams: WAL segments, the rebalance
// tail stream and the cluster's /shard/cuboid replies all use it.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// DecodePayload decodes one record payload (the bytes inside a verified
// frame). It never panics on corrupt input.
func DecodePayload(p []byte) (Record, error) {
	var r Record
	if len(p) < 9 {
		return r, fmt.Errorf("wal: payload of %d bytes, need at least 9", len(p))
	}
	r.Type = p[0]
	r.Epoch = binary.LittleEndian.Uint64(p[1:9])
	body := p[9:]
	switch r.Type {
	case recInsert:
		if len(body) < 6 {
			return r, fmt.Errorf("wal: insert body of %d bytes", len(body))
		}
		r.ID = int32(binary.LittleEndian.Uint32(body[0:4]))
		dims := int(binary.LittleEndian.Uint16(body[4:6]))
		if dims == 0 || len(body) != 6+4*dims {
			return r, fmt.Errorf("wal: insert body of %d bytes for %d dims", len(body), dims)
		}
		r.Point = make([]float32, dims)
		for i := range r.Point {
			r.Point[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[6+4*i:]))
		}
	case recDelete:
		if len(body) != 4 {
			return r, fmt.Errorf("wal: delete body of %d bytes", len(body))
		}
		r.ID = int32(binary.LittleEndian.Uint32(body))
	case recFlush, recCompact:
		if len(body) != 8 {
			return r, fmt.Errorf("wal: marker body of %d bytes", len(body))
		}
		r.Live = binary.LittleEndian.Uint64(body)
	case recBatch:
		if len(body) < 2 {
			return r, fmt.Errorf("wal: batch body of %d bytes", len(body))
		}
		idLen := int(binary.LittleEndian.Uint16(body[0:2]))
		if idLen == 0 || len(body) < 2+idLen+8 {
			return r, fmt.Errorf("wal: batch body of %d bytes for %d-byte id", len(body), idLen)
		}
		r.BatchID = string(body[2 : 2+idLen])
		rest := body[2+idLen:]
		r.Status = int(binary.LittleEndian.Uint32(rest[0:4]))
		bodyLen := int(binary.LittleEndian.Uint32(rest[4:8]))
		if len(rest) != 8+bodyLen {
			return r, fmt.Errorf("wal: batch body declares %d reply bytes, has %d", bodyLen, len(rest)-8)
		}
		r.Body = append([]byte(nil), rest[8:]...)
	default:
		return r, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	return r, nil
}

// OpenFrame verifies the envelope of the first frame in b and returns its
// payload (aliasing b) and the remaining bytes. Errors distinguish a torn
// frame (errTorn: b ends before the declared length) from corruption (a
// length beyond maxRecordSize, a CRC mismatch). It never panics on corrupt
// input and allocates nothing.
func OpenFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < frameHeaderSize {
		return nil, nil, errTorn
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	if n > maxRecordSize {
		return nil, nil, fmt.Errorf("wal: frame declares %d payload bytes", n)
	}
	if len(b) < frameHeaderSize+n {
		return nil, nil, errTorn
	}
	payload = b[frameHeaderSize : frameHeaderSize+n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, nil, fmt.Errorf("wal: frame CRC mismatch")
	}
	return payload, b[frameHeaderSize+n:], nil
}

// DecodeFrame decodes the first frame in b, returning the record and the
// remaining bytes: OpenFrame's envelope check, then DecodePayload.
func DecodeFrame(b []byte) (Record, []byte, error) {
	payload, rest, err := OpenFrame(b)
	if err != nil {
		return Record{}, nil, err
	}
	r, err := DecodePayload(payload)
	if err != nil {
		return Record{}, nil, err
	}
	return r, rest, nil
}

// errTorn marks an incomplete final frame: the file ends before the frame's
// declared length. It is the one decode failure recovery repairs silently
// (by truncating), because it is exactly what a crash mid-append leaves.
var errTorn = fmt.Errorf("wal: torn frame (file ends mid-record)")
