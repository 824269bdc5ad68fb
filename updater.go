package skycube

import (
	"fmt"
	"log"
	"time"

	"skycube/internal/delta"
	"skycube/internal/obs"
	"skycube/internal/wal"
)

// DurableOptions configure on-disk persistence of a maintained skycube
// (Options.Durable). Setting Dir turns it on: every accepted mutation is
// journaled to a write-ahead log before it is acknowledged, epoch-snapshot
// checkpoints bound the log, and NewUpdater recovers the exact pre-crash
// state from disk before returning.
type DurableOptions struct {
	// Dir is the node's data directory (created if absent). Empty disables
	// persistence entirely.
	Dir string
	// Fsync is the WAL durability policy: "always" (default — acknowledged
	// writes survive power loss, group-committed), "interval" (fsync on a
	// timer; a crash loses at most one interval), or "never" (the OS
	// decides; a clean shutdown still loses nothing).
	Fsync string
	// SyncInterval is the "interval" policy's period; 0 means 100ms.
	SyncInterval time.Duration
	// CheckpointEvery triggers a background checkpoint after this many WAL
	// records; 0 means 4096, negative disables auto-checkpointing.
	CheckpointEvery int
	// Logger, if non-nil, logs recovery progress, checkpoints and
	// torn-tail warnings.
	Logger *log.Logger
}

// DeltaOptions configure incremental skycube maintenance (Options.Delta).
// The zero value is a sensible default: no background compactor, an 8-epoch
// history ring.
type DeltaOptions struct {
	// AutoCompact compacts in a background goroutine once the snapshot's
	// overlay entry count — tombstones plus the masks of inserted and
	// changed points, at least 64 — reaches a quarter of the base cube's
	// point count. Without it, compaction happens only through
	// Updater.Compact.
	AutoCompact bool
	// IDSegments is the id scheme a first build starts with (the cluster
	// layer's mapping of local rows to global ids). The updater only carries
	// it; a durable updater's first checkpoint persists it, and a restart
	// restores the checkpointed scheme instead.
	IDSegments []IDSegment
}

// IDSegment is one piece of an id scheme (DeltaOptions.IDSegments).
type IDSegment = delta.IDSegment

// Snapshot is one immutable MVCC epoch of a maintained skycube. It extends
// Skycube with liveness and epoch queries. Snapshots are safe for
// unlimited concurrent use, never change after publication, and never
// block the updater: pinning an epoch is just holding the value.
type Snapshot interface {
	Skycube
	// Epoch returns the snapshot's epoch; the initial build is epoch 1 and
	// every applied batch or compaction increments it.
	Epoch() uint64
	// Live returns the number of live points at this epoch.
	Live() int
	// Len returns the logical id bound: ids in [0, Len) existed at some
	// epoch up to this one, though some may since have been deleted.
	Len() int
	// Alive reports whether id is a live point at this epoch.
	Alive(id int32) bool
	// Point returns the coordinates of point id (read-only).
	Point(id int32) []float32
}

// UpdaterStats is a point-in-time view of an updater's counters.
type UpdaterStats = delta.Stats

// Updater maintains a skycube under batched point inserts and deletes,
// publishing an immutable Snapshot per applied batch. Inserts are solved
// as single-point MDMC tasks against the retained static tree; deletes
// tombstone the victim and re-derive exactly the cuboids it was a skyline
// member of, re-testing only the points it dominated there and clearing that
// bit in the masks of the ones that resurface. All methods are safe for
// concurrent use.
type Updater struct {
	u *delta.Updater
	// store is the durability subsystem; nil for in-memory updaters.
	store *wal.Store
	// replayed is how many WAL records recovery replayed (0 on a fresh or
	// in-memory start).
	replayed int
}

// NewUpdater builds the initial skycube over ds (epoch 1) and returns an
// updater maintaining it. Point ids are assigned by dataset row — ds row i
// is id i — and inserted points continue the sequence. Maintenance uses
// the MDMC template and the HashCube representation, so opt.Algorithm must
// be MDMC (the default) and opt.MaxLevel must be 0 (full skycube).
// opt.GPUs/CPUAlso select the device pool for the initial build and
// compactions; opt.Delta tunes snapshots and compaction; opt.Metrics
// receives skycube_delta_* series.
func NewUpdater(ds *Dataset, opt Options) (*Updater, error) {
	if ds == nil {
		return nil, fmt.Errorf("skycube: nil dataset")
	}
	if opt.MaxLevel != 0 && opt.MaxLevel < ds.ds.Dims {
		return nil, fmt.Errorf("skycube: incremental maintenance requires a full skycube (MaxLevel 0, not %d)", opt.MaxLevel)
	}
	dopt, err := maintenanceOptions(opt)
	if err != nil {
		return nil, err
	}
	if opt.Durable.Dir == "" {
		du := delta.NewUpdater(ds.ds, dopt)
		du.SetIDSegments(opt.Delta.IDSegments)
		return &Updater{u: du}, nil
	}
	return newDurableUpdater(ds, opt, dopt)
}

// OpenUpdater recovers an updater purely from opt.Durable.Dir — no
// dataset: the newest valid checkpoint restores the state and the WAL tail
// replays through the ordinary mutation path. It refuses a directory with
// nothing to recover; a first build needs the data and goes through
// NewUpdater. Durable restarts use this — the initial checkpoint made the
// directory self-contained, so the original data file is never consulted
// again (and a node bootstrapped from a peer's snapshot stream never had
// one).
func OpenUpdater(opt Options) (*Updater, error) {
	if opt.Durable.Dir == "" {
		return nil, fmt.Errorf("skycube: OpenUpdater requires Options.Durable.Dir")
	}
	if opt.MaxLevel != 0 {
		return nil, fmt.Errorf("skycube: incremental maintenance requires a full skycube (MaxLevel 0, not %d)", opt.MaxLevel)
	}
	dopt, err := maintenanceOptions(opt)
	if err != nil {
		return nil, err
	}
	return newDurableUpdater(nil, opt, dopt)
}

// maintenanceOptions validates the algorithm choice and translates Options
// into the delta engine's configuration (shared by NewUpdater and
// OpenUpdater).
func maintenanceOptions(opt Options) (delta.Options, error) {
	if opt.Algorithm != MDMC {
		return delta.Options{}, fmt.Errorf("skycube: incremental maintenance requires the MDMC algorithm, not %v", opt.Algorithm)
	}
	threads := opt.threads()
	return delta.Options{
		Threads:     threads,
		Devices:     opt.devices(threads),
		AutoCompact: opt.Delta.AutoCompact,
		Metrics:     obs.NewDeltaMetrics(opt.Metrics),
	}, nil
}

// newDurableUpdater opens the data directory and either bootstraps it (a
// fresh initial build plus the first checkpoint) or recovers: rebuild at
// the newest valid checkpoint's epoch, replay the WAL tail through the
// ordinary mutation path, and verify the recovered epoch and live count —
// all before any caller can see the updater, so a recovering node serves
// nothing stale.
func newDurableUpdater(ds *Dataset, opt Options, dopt delta.Options) (*Updater, error) {
	store, rec, err := wal.Open(wal.Options{
		Dir:             opt.Durable.Dir,
		Fsync:           opt.Durable.Fsync,
		SyncInterval:    opt.Durable.SyncInterval,
		CheckpointEvery: opt.Durable.CheckpointEvery,
		Metrics:         obs.NewWALMetrics(opt.Metrics),
		Logger:          opt.Durable.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("skycube: %w", err)
	}
	fail := func(err error) (*Updater, error) {
		store.Close()
		return nil, err
	}
	// Both paths construct through NewUpdaterFrom, which — unlike
	// delta.NewUpdater — never starts the background compactor itself:
	// during replay, the WAL must drive every epoch advance.
	var du *delta.Updater
	replayed := 0
	if rec == nil {
		if ds == nil {
			return fail(fmt.Errorf("skycube: %s: nothing to recover (a first build needs the dataset — use NewUpdater)", opt.Durable.Dir))
		}
		d := ds.ds.Dims
		du, err = delta.NewUpdaterFrom(delta.RestoreState{
			Dims:       d,
			Epoch:      1,
			Live:       ds.ds.N,
			Vals:       ds.ds.Vals[:ds.ds.N*d],
			IDSegments: opt.Delta.IDSegments,
		}, dopt)
		if err != nil {
			return fail(fmt.Errorf("skycube: initial build: %w", err))
		}
		// The initial checkpoint makes the directory self-contained: from
		// here on, recovery never needs the original dataset file.
		if err := store.Checkpoint(du); err != nil {
			du.Close()
			return fail(fmt.Errorf("skycube: initial checkpoint: %w", err))
		}
	} else {
		du, err = delta.NewUpdaterFrom(rec.State, dopt)
		if err != nil {
			return fail(fmt.Errorf("skycube: recovery: %w", err))
		}
		if replayed, err = store.Replay(du); err != nil {
			du.Close()
			return fail(fmt.Errorf("skycube: recovery: %w", err))
		}
	}
	// Only now: journal new mutations, accept auto-checkpoints, and start
	// the background compactor (replay is done; its epochs are accounted).
	du.AttachJournal(store)
	store.AttachUpdater(du)
	if dopt.AutoCompact {
		du.StartAutoCompact()
	}
	return &Updater{u: du, store: store, replayed: replayed}, nil
}

// AdoptUpdater wraps an already-recovered delta updater and its store as a
// serving Updater. Nodes boot through NewUpdater or OpenUpdater — a replica
// joining from a peer included (rebalance.Join opens the directory it
// materialized with OpenUpdater). This stays for benchmark/, which runs
// the wal.Open/Replay recovery by hand to time its phases apart. store may
// be nil for an in-memory adoption.
func AdoptUpdater(du *delta.Updater, store *wal.Store, replayed int) *Updater {
	return &Updater{u: du, store: store, replayed: replayed}
}

// Delta exposes the underlying incremental updater. State-transfer tooling
// needs it to checkpoint (wal.Store.Checkpoint), to replay peer records
// (wal.Apply) through the exact engine the node serves from, and to start
// a joined replica's compactor once it has caught up; the serving layer
// looks up and remembers idempotent-insert replies through it.
func (up *Updater) Delta() *delta.Updater { return up.u }

// Insert buffers one point for the next batch and returns its assigned id.
// The point becomes visible at the snapshot the next Flush publishes.
func (up *Updater) Insert(point []float32) (int32, error) { return up.u.Insert(point) }

// Delete buffers the deletion of a live point; deleting an id inserted in
// the same unflushed batch cancels that insert. Unknown and
// already-deleted ids error immediately.
func (up *Updater) Delete(id int32) error { return up.u.Delete(id) }

// Pending reports the buffered batch size awaiting the next Flush.
func (up *Updater) Pending() (inserts, deletes int) { return up.u.Pending() }

// Flush applies the buffered batch and returns the snapshot serving it
// (the current snapshot if the batch was empty).
func (up *Updater) Flush() Snapshot { return up.u.Flush() }

// Compact folds the overlay into a fresh base over the live points, the one
// a full build over them would make, and returns the new snapshot.
func (up *Updater) Compact() Snapshot { return up.u.Compact() }

// Current returns the latest published snapshot.
func (up *Updater) Current() Snapshot { return up.u.Current() }

// At returns the snapshot at the given epoch while it remains in the
// history ring (the last 8 epochs).
func (up *Updater) At(epoch uint64) (Snapshot, bool) {
	s := up.u.At(epoch)
	if s == nil {
		return nil, false
	}
	return s, true
}

// Stats returns current maintenance counters.
func (up *Updater) Stats() UpdaterStats { return up.u.Stats() }

// Store exposes the durability subsystem backing this updater — nil for
// in-memory updaters. The serving layer uses it to commit the WAL at
// acknowledgement points.
func (up *Updater) Store() *wal.Store { return up.store }

// Replayed reports how many WAL records crash recovery replayed when this
// updater was opened (0 on a fresh or in-memory start).
func (up *Updater) Replayed() int { return up.replayed }

// Close stops the background compactor, if any, then syncs and closes the
// write-ahead log — a clean shutdown loses zero acknowledged writes under
// every fsync policy. Published snapshots stay valid after Close.
func (up *Updater) Close() {
	up.u.Close()
	if up.store != nil {
		up.store.Close()
	}
}
