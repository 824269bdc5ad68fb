package wal

// Streaming: the checkpoint and frame formats double as the wire format
// for moving state between nodes. A source shard serves its newest
// checkpoint bytes verbatim (GET /shard/snapshot) plus the framed records
// of the segments after it (GET /shard/tail), and a joining replica
// materializes a local data directory from the pair — after which the
// ordinary Open/Replay recovery path boots it, exactly as if the bytes had
// always been local.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"skycube/internal/delta"
)

// SnapshotStream is a decoded snapshot: a checkpoint file's content, or the
// same bytes received over the wire.
type SnapshotStream struct {
	// TailSeq is the WAL segment seq the snapshot pairs with: records in
	// segments >= TailSeq postdate the captured state.
	TailSeq uint64
	// State rebuilds an updater via delta.NewUpdaterFrom.
	State delta.RestoreState
}

// EncodeSnapshot serializes a snapshot in the checkpoint wire format (the
// bytes are valid checkpoint-file contents, trailing CRC included).
func EncodeSnapshot(tailSeq uint64, st delta.RestoreState) ([]byte, error) {
	var buf bytes.Buffer
	w := &crcWriter{w: &buf}
	encodeSnapshotBody(w, tailSeq, st)
	if w.err != nil {
		return nil, w.err
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot verifies (whole-stream CRC, field bounds) and decodes
// snapshot bytes received over the wire.
func DecodeSnapshot(raw []byte) (*SnapshotStream, error) {
	return decodeSnapshot(raw, "snapshot stream")
}

// EncodeRecords serializes records as a run of CRC-framed WAL frames — the
// tail feed's wire format, identical to segment contents after the header.
func EncodeRecords(records []Record) ([]byte, error) {
	var out []byte
	for i := range records {
		payload, err := appendPayload(nil, &records[i])
		if err != nil {
			return nil, err
		}
		out = AppendFrame(out, payload)
	}
	return out, nil
}

// DecodeRecords decodes a run of framed records (the body of a tail-feed
// response). Any torn or corrupt frame is an error — the transport below
// this is HTTP, which either delivers the bytes or fails the request, so
// there is no torn tail to repair.
func DecodeRecords(b []byte) ([]Record, error) {
	var recs []Record
	for len(b) > 0 {
		r, rest, err := DecodeFrame(b)
		if err != nil {
			return nil, fmt.Errorf("wal: tail stream record %d: %w", len(recs), err)
		}
		recs = append(recs, r)
		b = rest
	}
	return recs, nil
}

// ErrTailTruncated reports that a requested tail chain starts before the
// oldest segment still on disk — a checkpoint truncated it away. The
// caller must restart from a fresh snapshot.
var ErrTailTruncated = errors.New("wal: tail segments truncated by a checkpoint; re-fetch the snapshot")

// Seq returns the active segment's sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// SnapshotSeq returns the seq of the newest on-disk checkpoint (0 when no
// checkpoint has been written yet).
func (s *Store) SnapshotSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapSeq
}

// Records returns how many records this store appended over its lifetime
// (not counting records replayed from disk at open).
func (s *Store) Records() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// TailChain decodes every record in the contiguous segment run from seq
// `from` through the active segment, skipping the first `skip` records.
// It returns the remaining records and the chain's total record count —
// the caller's next `skip`. The pair (from, skip) is a resumable cursor:
// repeated calls with the returned total as the new skip yield exactly the
// records appended in between, never a duplicate.
//
// ErrTailTruncated means a checkpoint deleted segment `from`; the caller
// must restart from a fresh snapshot (whose TailSeq names a live segment).
func (s *Store) TailChain(from uint64, skip int) ([]Record, int, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, errors.New("wal: store closed")
	}
	if err := s.flushLocked(); err != nil {
		s.mu.Unlock()
		return nil, 0, err
	}
	active := s.seq
	var activeRaw []byte
	var readErr error
	if from > 0 && from <= active {
		// Read the active segment while holding the append lock: the flush
		// above made every appended frame visible, and no append can land
		// mid-read, so the image never ends in a torn frame.
		activeRaw, readErr = os.ReadFile(filepath.Join(s.dir, segName(active)))
	}
	s.mu.Unlock()
	if from == 0 || from > active {
		return nil, 0, fmt.Errorf("wal: tail chain from segment %d, active segment is %d", from, active)
	}
	if readErr != nil {
		return nil, 0, readErr
	}

	var all []Record
	for seq := from; seq < active; seq++ {
		recs, _, err := decodeSegmentFile(filepath.Join(s.dir, segName(seq)), seq)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil, 0, ErrTailTruncated
			}
			return nil, 0, fmt.Errorf("wal: tail chain segment %d: %w", seq, err)
		}
		all = append(all, recs...)
	}
	recs, _, err := decodeSegmentBytes(activeRaw, active)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: tail chain active segment %d: %w", active, err)
	}
	all = append(all, recs...)

	total := len(all)
	if skip < 0 {
		skip = 0
	}
	if skip > total {
		return nil, total, fmt.Errorf("wal: tail chain skip %d beyond the chain's %d records", skip, total)
	}
	return all[skip:], total, nil
}

// StreamSnapshot returns the newest on-disk checkpoint's verbatim bytes
// and its tail seq. The (bytes, seq) pair with TailChain(seq, 0) is a
// complete, consistent state transfer. Callers wanting a freshly pinned
// epoch run Checkpoint first. A checkpoint racing the read is retried — it
// only ever replaces the snapshot with a newer one.
func (s *Store) StreamSnapshot() ([]byte, uint64, error) {
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		seq := s.snapSeq
		s.mu.Unlock()
		if seq == 0 {
			return nil, 0, errors.New("wal: no checkpoint on disk yet")
		}
		raw, err := os.ReadFile(filepath.Join(s.dir, snapName(seq)))
		if err == nil {
			return raw, seq, nil
		}
		if !errors.Is(err, os.ErrNotExist) || attempt >= 3 {
			return nil, 0, err
		}
	}
}

// WriteBootstrap materializes a data directory from a streamed state
// transfer: the snapshot bytes are written verbatim as the checkpoint
// file, and the tail records become the segment the snapshot names. The
// directory must hold no WAL state. Afterwards the ordinary Open/Replay
// recovery path boots the node exactly as if it had crashed locally with
// that state.
func WriteBootstrap(dir string, rawSnapshot []byte, tail []Record) error {
	sd, err := decodeSnapshot(rawSnapshot, "bootstrap snapshot")
	if err != nil {
		return err
	}
	if sd.TailSeq == 0 {
		return errors.New("wal: bootstrap snapshot names segment 0")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return err
	}
	if len(segs) > 0 || len(snaps) > 0 {
		return fmt.Errorf("wal: bootstrap into %s: directory already holds WAL state", dir)
	}

	// Segment first, snapshot last: recovery requires the tail segment
	// named by a snapshot to exist, so the reverse order has a crash window
	// that leaves an unrecoverable directory.
	f, err := createSegment(dir, sd.TailSeq)
	if err != nil {
		return err
	}
	frames, err := EncodeRecords(tail)
	if err != nil {
		f.Close()
		return err
	}
	if len(frames) > 0 {
		if _, err := f.Write(frames); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	final := filepath.Join(dir, snapName(sd.TailSeq))
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, rawSnapshot, 0o644); err != nil {
		return err
	}
	if err := syncFile(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// WipeForRejoin deletes every WAL segment and snapshot in dir, preparing
// it for a fresh WriteBootstrap. A restarted replica that finds itself
// behind its peers discards its stale state this way and re-bootstraps
// from a peer's stream. The caller must hold no open Store on the
// directory.
func WipeForRejoin(dir string) error {
	segs, snaps, err := scanDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, seq := range segs {
		if err := os.Remove(filepath.Join(dir, segName(seq))); err != nil {
			return err
		}
	}
	for _, seq := range snaps {
		if err := os.Remove(filepath.Join(dir, snapName(seq))); err != nil {
			return err
		}
	}
	return syncDir(dir)
}
