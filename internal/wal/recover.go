package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"skycube/internal/delta"
)

// Recovered is what Open found on disk: the checkpoint state to rebuild
// the updater from. The decoded WAL tail stays inside the store until
// Replay drives it through the rebuilt updater.
type Recovered struct {
	// State reconstructs the updater via delta.NewUpdaterFrom.
	State delta.RestoreState
}

// Open opens (or initialises) the data directory. A nil Recovered means a
// fresh directory: build the updater normally and call Checkpoint once to
// lay down the initial snapshot. A non-nil Recovered means state exists:
// rebuild via delta.NewUpdaterFrom(rec.State, ...), then call Replay, then
// AttachJournal/AttachUpdater — in that order, so replayed mutations are
// not re-journaled and no background compaction interleaves with replay.
func Open(opt Options) (*Store, *Recovered, error) {
	if opt.Dir == "" {
		return nil, nil, errors.New("wal: no data directory")
	}
	switch opt.Fsync {
	case "", FsyncAlways, FsyncInterval, FsyncNever:
	default:
		return nil, nil, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", opt.Fsync)
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	segs, snaps, err := scanDir(opt.Dir)
	if err != nil {
		return nil, nil, err
	}

	if len(snaps) == 0 {
		return openFresh(opt, segs)
	}

	// Newest snapshot whose CRC verifies wins; corrupt ones are skipped
	// with a warning (the paired tail segments still exist, and an older
	// (snapshot, longer tail) pair replays to the same state).
	var sd *SnapshotStream
	for i := len(snaps) - 1; i >= 0; i-- {
		cand, err := readSnapshotFile(filepath.Join(opt.Dir, snapName(snaps[i])))
		if err != nil {
			if opt.Logger != nil {
				opt.Logger.Printf("wal: skipping snapshot %s: %v", snapName(snaps[i]), err)
			}
			continue
		}
		sd = cand
		break
	}
	if sd == nil {
		return nil, nil, fmt.Errorf("wal: %s: no snapshot passes verification", opt.Dir)
	}

	// The tail is the contiguous run of segments from the snapshot's seq.
	var tail []uint64
	for _, seq := range segs {
		if seq >= sd.TailSeq {
			tail = append(tail, seq)
		}
	}
	if len(tail) == 0 || tail[0] != sd.TailSeq {
		return nil, nil, fmt.Errorf("wal: %s: snapshot %d's tail segment is missing", opt.Dir, sd.TailSeq)
	}
	for i := 1; i < len(tail); i++ {
		if tail[i] != tail[i-1]+1 {
			return nil, nil, fmt.Errorf("wal: %s: segment gap between %d and %d", opt.Dir, tail[i-1], tail[i])
		}
	}

	// A trailing segment shorter than its header is the residue of a crash
	// inside segment creation: headers are written and fsynced before a
	// segment is ever appended to (and before the snapshot naming it can be
	// renamed into place), so such a file can hold no records — remove it.
	// Anywhere but the end, or on the snapshot's own segment, a short file
	// breaks the protocol's promises and recovery fails loud instead.
	last := filepath.Join(opt.Dir, segName(tail[len(tail)-1]))
	if fi, err := os.Stat(last); err == nil && fi.Size() < segHeaderLen {
		if len(tail) == 1 {
			return nil, nil, fmt.Errorf("wal: %s: snapshot %d's tail segment is truncated", opt.Dir, sd.TailSeq)
		}
		if err := os.Remove(last); err != nil {
			return nil, nil, err
		}
		_ = syncDir(opt.Dir)
		if opt.Logger != nil {
			opt.Logger.Printf("wal: removed header-less segment %s (crash during segment creation)",
				segName(tail[len(tail)-1]))
		}
		tail = tail[:len(tail)-1]
	}

	var records []Record
	for i, seq := range tail {
		recs, err := readSegment(opt, seq, i == len(tail)-1)
		if err != nil {
			return nil, nil, err
		}
		records = append(records, recs...)
	}

	active := tail[len(tail)-1]
	f, off, err := openSegmentAppend(opt.Dir, active)
	if err != nil {
		return nil, nil, err
	}
	s := newStore(opt, f, active, off)
	s.snapSeq = sd.TailSeq
	s.tailRecords = records
	return s, &Recovered{State: sd.State}, nil
}

// openFresh initialises an empty (or never-checkpointed) directory. Any
// leftover segment must hold zero records — a crash between segment
// creation and the first checkpoint — or the log is unrecoverable without
// its base and Open refuses.
func openFresh(opt Options, segs []uint64) (*Store, *Recovered, error) {
	next := uint64(1)
	for _, seq := range segs {
		path := filepath.Join(opt.Dir, segName(seq))
		if fi, err := os.Stat(path); err == nil && fi.Size() < segHeaderLen {
			// Crash during segment creation, before the header write: the
			// file was never usable, so it cannot hold records.
			os.Remove(path)
			if seq >= next {
				next = seq + 1
			}
			continue
		}
		recs, _, err := decodeSegmentFile(path, seq)
		if err != nil || len(recs) > 0 {
			return nil, nil, fmt.Errorf("wal: %s: segment %d holds records but no snapshot exists", opt.Dir, seq)
		}
		os.Remove(path)
		if seq >= next {
			next = seq + 1
		}
	}
	f, err := createSegment(opt.Dir, next)
	if err != nil {
		return nil, nil, err
	}
	if err := syncDir(opt.Dir); err != nil {
		f.Close()
		return nil, nil, err
	}
	return newStore(opt, f, next, segHeaderLen), nil, nil
}

// openSegmentAppend opens a verified segment for appending, returning its
// current size.
func openSegmentAppend(dir string, seq uint64) (*os.File, int64, error) {
	path := filepath.Join(dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// readSegment decodes one tail segment. In the final segment a torn tail —
// the crash residue of an interrupted group commit — is truncated away
// with a warning; everywhere else any undecodable byte is fatal.
func readSegment(opt Options, seq uint64, final bool) ([]Record, error) {
	path := filepath.Join(opt.Dir, segName(seq))
	recs, badOff, err := decodeSegmentFile(path, seq)
	if err == nil {
		return recs, nil
	}
	if !final || !isTornTail(err) {
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	fi, statErr := os.Stat(path)
	if statErr != nil {
		return nil, statErr
	}
	dropped := fi.Size() - badOff
	if truncErr := os.Truncate(path, badOff); truncErr != nil {
		return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, truncErr)
	}
	if syncErr := syncFile(path); syncErr != nil {
		return nil, syncErr
	}
	opt.Metrics.TornTail(dropped)
	if opt.Logger != nil {
		opt.Logger.Printf("wal: truncated torn tail of %s (%d bytes dropped after %d records): %v",
			segName(seq), dropped, len(recs), err)
	}
	return recs, nil
}

func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// segmentError wraps a decode failure with whether intact records follow
// it — the discriminator between a torn tail (repairable) and interior
// corruption (fatal).
type segmentError struct {
	err      error
	interior bool
}

func (e *segmentError) Error() string { return e.err.Error() }
func (e *segmentError) Unwrap() error { return e.err }

// isTornTail reports whether err is a repairable torn tail: a decode
// failure with nothing decodable after it.
func isTornTail(err error) bool {
	var se *segmentError
	return errors.As(err, &se) && !se.interior
}

// decodeSegmentFile reads every record of one segment. On a decode
// failure it returns the records before the failure, the byte offset the
// failure starts at, and a *segmentError saying whether intact records
// follow the bad region (interior corruption) or not (torn tail).
func decodeSegmentFile(path string, seq uint64) ([]Record, int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return decodeSegmentBytes(raw, seq)
}

// decodeSegmentBytes decodes a whole segment image already in memory (the
// tail streamer reads the active segment under the append lock and decodes
// it after releasing).
func decodeSegmentBytes(raw []byte, seq uint64) ([]Record, int64, error) {
	if len(raw) < segHeaderLen || string(raw[:8]) != segMagic {
		return nil, 0, fmt.Errorf("not a WAL segment")
	}
	if got := binary.LittleEndian.Uint64(raw[8:16]); got != seq {
		return nil, 0, fmt.Errorf("segment header seq %d, want %d", got, seq)
	}
	var recs []Record
	b := raw[segHeaderLen:]
	off := int64(segHeaderLen)
	for len(b) > 0 {
		r, rest, err := DecodeFrame(b)
		if err != nil {
			return recs, off, &segmentError{err: err, interior: decodesAhead(b)}
		}
		recs = append(recs, r)
		off += int64(len(b) - len(rest))
		b = rest
	}
	return recs, off, nil
}

// decodesAhead reports whether any intact frame chain follows the bad
// frame at the start of b: if the bad frame's declared length is in
// bounds, and the bytes after it decode as valid frames through to the end
// of the segment, the bad bytes sit between good records — interior
// corruption, not a torn tail.
func decodesAhead(b []byte) bool {
	if len(b) < frameHeaderSize {
		return false
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	if n < 9 || n > maxRecordSize || len(b) < frameHeaderSize+n {
		return false
	}
	rest := b[frameHeaderSize+n:]
	if len(rest) == 0 {
		return false
	}
	for len(rest) > 0 {
		_, next, err := DecodeFrame(rest)
		if err != nil {
			return false
		}
		rest = next
	}
	return true
}

// Replay drives the decoded WAL tail through the rebuilt updater's
// ordinary mutation path, verifying each record's effect: inserts must be
// assigned the recorded id, epoch markers must produce the recorded epoch
// and live count. Call before AttachJournal (replayed mutations must not
// be re-journaled) and before the background compactor starts (replay
// must drive every epoch advance itself). Returns the replayed record
// count.
func (s *Store) Replay(u *delta.Updater) (int, error) {
	start := time.Now()
	records := s.tailRecords
	s.tailRecords = nil
	n, err := Apply(u, records)
	if err != nil {
		return n, err
	}
	s.opt.Metrics.Recovery(time.Since(start), len(records), u.Current().Epoch())
	if s.opt.Logger != nil && len(records) > 0 {
		s.opt.Logger.Printf("wal: replayed %d records to epoch %d in %v",
			len(records), u.Current().Epoch(), time.Since(start))
	}
	return len(records), nil
}

// Apply drives decoded WAL records through the updater's ordinary mutation
// path, verifying each record's effect exactly as crash recovery does:
// inserts must be assigned the recorded id, epoch markers must produce the
// recorded epoch and live count. Batch-reply records are remembered by
// the updater. It returns how many records were applied before the first
// failure.
//
// Unlike Replay, Apply may run with a journal attached: a joining replica
// applies a peer's tail through its own journaled updater, making the
// catch-up itself durable.
func Apply(u *delta.Updater, records []Record) (int, error) {
	for i, r := range records {
		switch r.Type {
		case recInsert:
			id, err := u.Insert(r.Point)
			if err != nil {
				return i, fmt.Errorf("wal: replay record %d: insert: %w", i, err)
			}
			if id != r.ID {
				return i, fmt.Errorf("wal: replay record %d: insert assigned id %d, log says %d", i, id, r.ID)
			}
		case recDelete:
			if err := u.Delete(r.ID); err != nil {
				return i, fmt.Errorf("wal: replay record %d: delete %d: %w", i, r.ID, err)
			}
		case recFlush, recCompact:
			var snap *delta.Snapshot
			if r.Type == recFlush {
				snap = u.Flush()
			} else {
				snap = u.Compact()
			}
			if snap.Epoch() != r.Epoch || uint64(snap.Live()) != r.Live {
				return i, fmt.Errorf("wal: replay record %d: marker says epoch %d with %d live, replay produced epoch %d with %d live",
					i, r.Epoch, r.Live, snap.Epoch(), snap.Live())
			}
		case recBatch:
			if err := u.RememberBatch(r.BatchID, r.Status, r.Body); err != nil {
				return i, fmt.Errorf("wal: replay record %d: batch %q: %w", i, r.BatchID, err)
			}
		default:
			return i, fmt.Errorf("wal: replay record %d: unknown type %d", i, r.Type)
		}
	}
	return len(records), nil
}
