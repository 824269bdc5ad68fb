package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"skycube/internal/delta"
	"skycube/internal/obs"
)

// Fsync policies for Options.Fsync.
const (
	// FsyncAlways makes Commit fsync (group-committed: one fsync covers
	// every record appended since the last). An acknowledged write survives
	// power loss.
	FsyncAlways = "always"
	// FsyncInterval fsyncs on a timer (Options.SyncInterval); Commit only
	// flushes to the OS. A crash loses at most one interval of acks.
	FsyncInterval = "interval"
	// FsyncNever never fsyncs during operation (Close still does). A crash
	// loses whatever the OS had not written back.
	FsyncNever = "never"
)

// DefaultSyncInterval is the FsyncInterval period when unset.
const DefaultSyncInterval = 100 * time.Millisecond

// DefaultCheckpointEvery is the auto-checkpoint record threshold when
// Options.CheckpointEvery is 0.
const DefaultCheckpointEvery = 4096

// Options configure Open.
type Options struct {
	// Dir is the node's data directory; created if absent.
	Dir string
	// Fsync is the durability policy: FsyncAlways (default), FsyncInterval
	// or FsyncNever.
	Fsync string
	// SyncInterval is the FsyncInterval period; 0 means
	// DefaultSyncInterval.
	SyncInterval time.Duration
	// CheckpointEvery triggers a background checkpoint after this many
	// records since the last one; 0 means DefaultCheckpointEvery, negative
	// disables auto-checkpointing (Checkpoint still works).
	CheckpointEvery int
	// Metrics, if non-nil, receives skycube_wal_* observations.
	Metrics *obs.WALMetrics
	// Logger, if non-nil, logs recovery progress and torn-tail warnings.
	Logger *log.Logger
}

// Store is the open write-ahead log of one node. It implements
// delta.Journal: the updater appends records through it, and the serving
// layer's ack path calls Commit. All methods are safe for concurrent use.
type Store struct {
	dir string
	opt Options

	// mu guards the append state: the active segment, its buffered writer,
	// byte/record counters.
	mu      sync.Mutex
	f       *os.File
	buf     *bufio.Writer
	seq     uint64 // active segment's sequence number
	written int64  // bytes handed to buf for the active segment (header incl.)
	flushed int64  // bytes flushed to the OS for the active segment
	synced  int64  // bytes known fsynced for the active segment
	count   uint64 // records appended over the store's lifetime
	sinceCk uint64 // records appended since the last checkpoint
	snapSeq uint64 // seq of the newest on-disk snapshot (0 before the first)
	closed  bool

	// Group commit: the first committer past the durable high-water mark
	// becomes the leader and fsyncs once for everyone waiting.
	sMu       sync.Mutex
	sCond     *sync.Cond
	syncing   bool
	syncedCnt uint64 // records known durable
	syncErr   error  // sticky: a failed write or fsync poisons the store

	// ckMu serialises checkpoints; updater is the replay/capture target,
	// set once by AttachUpdater before serving.
	ckMu    sync.Mutex
	updater *delta.Updater

	// tailRecords is the decoded WAL tail Open left for Replay.
	tailRecords []Record

	ckCh     chan struct{}
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	loopOnce sync.Once

	// Test hooks, called (when non-nil) just before and just after the
	// checkpoint's atomic rename — the two crash windows worth aiming at.
	TestBeforeRename func()
	TestAfterRename  func()
}

func segName(seq uint64) string  { return fmt.Sprintf("wal-%016x.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.ck", seq) }

const (
	segMagic     = "SKYWAL01"
	snapMagic    = "SKYSNP01"
	segHeaderLen = 16 // magic + u64 seq
)

// createSegment writes a new empty segment file with a synced header.
func createSegment(dir string, seq uint64) (*os.File, error) {
	path := filepath.Join(dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, seq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs the data directory, making renames and creates durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// newStore wires the in-memory structure around an already-open active
// segment positioned at off bytes.
func newStore(opt Options, f *os.File, seq uint64, off int64) *Store {
	if opt.Fsync == "" {
		opt.Fsync = FsyncAlways
	}
	if opt.SyncInterval <= 0 {
		opt.SyncInterval = DefaultSyncInterval
	}
	if opt.CheckpointEvery == 0 {
		opt.CheckpointEvery = DefaultCheckpointEvery
	}
	s := &Store{
		dir:     opt.Dir,
		opt:     opt,
		f:       f,
		buf:     bufio.NewWriterSize(f, 1<<16),
		seq:     seq,
		written: off,
		flushed: off,
		synced:  off,
		ckCh:    make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
	}
	s.sCond = sync.NewCond(&s.sMu)
	return s
}

// AttachUpdater hands the store the updater it checkpoints, and starts the
// background interval-sync and auto-checkpoint loops. Call once, after
// recovery/bootstrap, before serving.
func (s *Store) AttachUpdater(u *delta.Updater) {
	s.ckMu.Lock()
	s.updater = u
	s.ckMu.Unlock()
	s.loopOnce.Do(func() {
		if s.opt.Fsync == FsyncInterval {
			s.wg.Add(1)
			go s.syncLoop()
		}
		if s.opt.CheckpointEvery > 0 {
			s.wg.Add(1)
			go s.checkpointLoop()
		}
	})
}

// ---- delta.Journal ----

// LogInsert implements delta.Journal.
func (s *Store) LogInsert(epoch uint64, id int32, point []float32) error {
	return s.append(&Record{Type: recInsert, Epoch: epoch, ID: id, Point: point})
}

// LogDelete implements delta.Journal.
func (s *Store) LogDelete(epoch uint64, id int32) error {
	return s.append(&Record{Type: recDelete, Epoch: epoch, ID: id})
}

// LogEpoch implements delta.Journal.
func (s *Store) LogEpoch(compact bool, epoch uint64, live int) error {
	typ := byte(recFlush)
	if compact {
		typ = recCompact
	}
	return s.append(&Record{Type: typ, Epoch: epoch, Live: uint64(live)})
}

// LogBatch implements delta.Journal.
func (s *Store) LogBatch(id string, status int, body []byte) error {
	return s.append(&Record{Type: recBatch, BatchID: id, Status: status, Body: body})
}

func (s *Store) append(r *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(r)
}

func (s *Store) appendLocked(r *Record) error {
	if s.closed {
		return errors.New("wal: store closed")
	}
	payload, err := appendPayload(nil, r)
	if err != nil {
		return err
	}
	frame := AppendFrame(nil, payload)
	if _, err := s.buf.Write(frame); err != nil {
		s.poison(err)
		return err
	}
	s.written += int64(len(frame))
	s.count++
	s.sinceCk++
	s.opt.Metrics.Append(len(frame))
	if s.opt.CheckpointEvery > 0 && s.sinceCk >= uint64(s.opt.CheckpointEvery) {
		select {
		case s.ckCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// Commit implements delta.Journal: it blocks until every record appended
// so far is durable per the fsync policy. Under FsyncAlways concurrent
// committers group-commit — one leader fsyncs for all waiters whose
// records the flush covered.
func (s *Store) Commit() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("wal: store closed")
	}
	target := s.count
	if s.opt.Fsync != FsyncAlways {
		err := s.flushLocked()
		s.mu.Unlock()
		if err != nil {
			s.poison(err)
		}
		return err
	}
	s.mu.Unlock()

	s.sMu.Lock()
	for s.syncedCnt < target && s.syncing {
		s.sCond.Wait()
	}
	if s.syncErr != nil {
		err := s.syncErr
		s.sMu.Unlock()
		return err
	}
	if s.syncedCnt >= target {
		s.sMu.Unlock()
		return nil
	}
	s.syncing = true
	s.sMu.Unlock()

	covered, err := s.syncOnce()

	s.sMu.Lock()
	if err != nil {
		s.syncErr = err
	} else if covered > s.syncedCnt {
		s.syncedCnt = covered
	}
	s.syncing = false
	s.sCond.Broadcast()
	s.sMu.Unlock()
	return err
}

// Err reports, without any I/O, what every later Commit fails with: a
// closed store, or the first failed write or fsync, which poisons the store
// (the buffered writer keeps its error, and an fsync failure may have lost
// pages). An updater commits its epoch marker itself and swallows the
// error, so a flush's acknowledgement reads it here rather than committing
// again and paying an fsync for records that other requests' acks commit.
func (s *Store) Err() error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return errors.New("wal: store closed")
	}
	s.sMu.Lock()
	defer s.sMu.Unlock()
	return s.syncErr
}

// poison records err as the store's sticky failure unless one is recorded
// already.
func (s *Store) poison(err error) {
	s.sMu.Lock()
	if s.syncErr == nil {
		s.syncErr = err
	}
	s.sMu.Unlock()
}

// flushLocked pushes the buffered frames to the OS. Caller holds s.mu.
func (s *Store) flushLocked() error {
	if err := s.buf.Flush(); err != nil {
		return err
	}
	s.flushed = s.written
	return nil
}

// syncOnce flushes and fsyncs the active segment, returning the record
// count the sync covers. A rotation racing the fsync is benign: rotate
// syncs the outgoing segment itself before swapping, so every record up to
// the captured count is durable either way (a Sync on the closed old file
// reports os.ErrClosed and is ignored).
func (s *Store) syncOnce() (uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, errors.New("wal: store closed")
	}
	if err := s.flushLocked(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	f := s.f
	covered := s.count
	size := s.written
	start := time.Now()
	s.mu.Unlock()
	s.sMu.Lock()
	prevSynced := s.syncedCnt // durable mark, for the batch-size metric only
	s.sMu.Unlock()

	err := f.Sync()
	if err != nil && errors.Is(err, os.ErrClosed) {
		err = nil
	}
	if err != nil {
		return 0, err
	}

	s.mu.Lock()
	if f == s.f && size > s.synced {
		s.synced = size
	}
	s.mu.Unlock()
	s.opt.Metrics.Fsync(int(covered-prevSynced), time.Since(start))
	return covered, nil
}

// syncLoop is the FsyncInterval ticker.
func (s *Store) syncLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opt.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			covered, err := s.syncOnce()
			s.sMu.Lock()
			if err != nil && s.syncErr == nil {
				s.syncErr = err
			}
			if covered > s.syncedCnt {
				s.syncedCnt = covered
			}
			s.sMu.Unlock()
		}
	}
}

// checkpointLoop runs auto-checkpoints signalled by append volume.
func (s *Store) checkpointLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.ckCh:
			s.ckMu.Lock()
			u := s.updater
			s.ckMu.Unlock()
			if u == nil {
				continue
			}
			if err := s.Checkpoint(u); err != nil && s.opt.Logger != nil {
				s.opt.Logger.Printf("wal: auto-checkpoint: %v", err)
			}
		}
	}
}

// Checkpoint captures a consistent snapshot of u, writes it atomically,
// and truncates the log: a new segment becomes active at the exact capture
// point, the snapshot (named by that segment's seq) is written to a temp
// file, fsynced, renamed into place, and only then are the older segments
// and snapshots deleted. A crash anywhere in between leaves either the old
// (snapshot, tail) pair or the new one — never neither.
func (s *Store) Checkpoint(u *delta.Updater) error {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	start := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("wal: store closed")
	}
	newSeq := s.seq + 1
	s.mu.Unlock()

	// The next segment is created (and its header synced) outside every
	// lock — the capture point below only swaps pointers.
	nf, err := createSegment(s.dir, newSeq)
	if err != nil {
		return fmt.Errorf("wal: checkpoint segment: %w", err)
	}

	var old *os.File
	st, err := u.CaptureState(func(epoch uint64) error {
		// Called under the updater's apply and buffer locks: no journal
		// append can be concurrent, so the segment swap is an exact
		// boundary between "in the snapshot" and "in the tail".
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.flushLocked(); err != nil {
			return err
		}
		if err := s.f.Sync(); err != nil {
			return err
		}
		old = s.f
		s.f = nf
		s.buf.Reset(nf)
		s.seq = newSeq
		s.written = segHeaderLen
		s.flushed = segHeaderLen
		s.synced = segHeaderLen
		s.sinceCk = 0
		return nil
	})
	if err != nil {
		nf.Close()
		os.Remove(filepath.Join(s.dir, segName(newSeq)))
		return fmt.Errorf("wal: checkpoint capture: %w", err)
	}
	// Every record in pre-rotation segments is durable; in-flight Commits
	// holding the old file tolerate its closure (see syncOnce).
	old.Close()

	tmp := filepath.Join(s.dir, snapName(newSeq)+".tmp")
	size, err := writeSnapshotFile(tmp, newSeq, st)
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if s.TestBeforeRename != nil {
		s.TestBeforeRename()
	}
	final := filepath.Join(s.dir, snapName(newSeq))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("wal: checkpoint dir sync: %w", err)
	}
	s.mu.Lock()
	s.snapSeq = newSeq
	s.mu.Unlock()
	if s.TestAfterRename != nil {
		s.TestAfterRename()
	}

	// Truncate: the new snapshot is durable, so everything older is dead
	// weight. Deletion failures are retried by the next checkpoint.
	truncated := 0
	segs, snaps, _ := scanDir(s.dir)
	for _, seg := range segs {
		if seg < newSeq {
			if os.Remove(filepath.Join(s.dir, segName(seg))) == nil {
				truncated++
			}
		}
	}
	for _, sn := range snaps {
		if sn < newSeq {
			os.Remove(filepath.Join(s.dir, snapName(sn)))
		}
	}
	_ = syncDir(s.dir)
	s.opt.Metrics.Checkpoint(time.Since(start), size, truncated)
	if s.opt.Logger != nil {
		s.opt.Logger.Printf("wal: checkpoint at epoch %d (segment %d, %d bytes, %d segments truncated)",
			st.Epoch, newSeq, size, truncated)
	}
	return nil
}

// Close stops the background loops, flushes and fsyncs the active segment,
// and closes it. A clean shutdown therefore loses nothing, whatever the
// fsync policy. Safe to call once.
func (s *Store) Close() error {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.buf.Flush()
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CrashForTest simulates a power cut: buffered (unflushed) records are
// discarded outright, and the active segment is truncated back to its last
// fsynced size — exactly the state a kernel crash leaves under the given
// fsync policy. The store is unusable afterwards.
func (s *Store) CrashForTest() error {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	path := filepath.Join(s.dir, segName(s.seq))
	s.f.Close()
	return os.Truncate(path, s.synced)
}

// scanDir lists the segment and snapshot sequence numbers present in dir,
// each sorted ascending.
func scanDir(dir string) (segs, snaps []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		var seq uint64
		switch {
		case len(name) == len("wal-0000000000000000.log") && name[:4] == "wal-" && filepath.Ext(name) == ".log":
			if _, err := fmt.Sscanf(name, "wal-%016x.log", &seq); err == nil {
				segs = append(segs, seq)
			}
		case len(name) == len("snap-0000000000000000.ck") && name[:5] == "snap-" && filepath.Ext(name) == ".ck":
			if _, err := fmt.Sscanf(name, "snap-%016x.ck", &seq); err == nil {
				snaps = append(snaps, seq)
			}
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	sort.Slice(snaps, func(a, b int) bool { return snaps[a] < snaps[b] })
	return segs, snaps, nil
}
