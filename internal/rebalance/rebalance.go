// Package rebalance is the elastic-membership control plane: it moves a
// shard's durable state between nodes so the cluster can grow, split and
// heal without stopping traffic.
//
// The mechanism is a snapshot-streamed bootstrap. A source shard serves its
// newest checkpoint verbatim (GET /shard/snapshot) and the CRC-framed
// records of the WAL segments after it (GET /shard/tail?from=&skip=); a
// joining node materializes a local data directory from the snapshot
// (wal.WriteBootstrap), boots it through the ordinary crash-recovery path
// (skycube.OpenUpdater), and then replays the peer's tail through its own
// journaled updater — so the catch-up itself is durable locally, and a
// crash mid-join recovers to a consistent prefix. The (from, skip) cursor
// makes the tail feed exactly once and resumable; a peer checkpoint that
// truncates the chain surfaces as wal.ErrTailTruncated and the join
// restarts from a fresh snapshot.
//
// The same primitives serve anti-entropy (AntiEntropy): a restarted replica
// compares its recovered epoch against the epochs its peers report on
// /shard/info and, if it missed writes while down, wipes its stale
// directory and re-bootstraps from the freshest peer before it ever
// reports ready.
package rebalance

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"skycube"
	"skycube/internal/obs"
	"skycube/internal/wal"
)

// Cursor is the resumable position in a peer's tail chain: records of
// segments >= From, skipping the first Skip already applied.
type Cursor struct {
	From uint64
	Skip int
}

// Node is a joined (or joining) replica: the updater its data directory
// booted into, plus the catch-up cursor against its source peer. The caller
// serves Updater once caught up (cluster.NewShardFrom).
type Node struct {
	Updater *skycube.Updater
	Cursor  Cursor

	peer    string
	metrics *obs.RebalanceMetrics
	// compact is opt.Delta.AutoCompact, held back until Detach.
	compact bool
	detach  sync.Once
}

// Detach ends the node's catch-up from its source: from now on its own
// writes alone advance its epoch, so the background compactor starts if
// opt.Delta.AutoCompact asked for one. Until then CatchUp may still replay
// the source's journaled compactions, and a compaction of the node's own
// would give it an epoch the source never had — the next replayed
// compaction would then fail its epoch check. A split detaches its child
// at cutover (POST /shard/seal). Later calls do nothing.
func (n *Node) Detach() {
	n.detach.Do(func() {
		if n.compact {
			n.Updater.Delta().StartAutoCompact()
		}
	})
}

// Join bootstraps a node from peer's snapshot stream: fetch and verify the
// snapshot, materialize opt.Durable.Dir from it, and boot the directory
// through skycube.OpenUpdater — the crash recovery every durable node runs,
// with the node's own devices, delta and WAL settings and metrics registry.
// The background compactor stays off until Detach, so replayed records
// alone advance the epoch. The returned node is a
// consistent copy of the peer at the snapshot's pinned epoch; CatchUp
// replays what the peer accepted since.
func Join(ctx context.Context, peer string, opt skycube.Options) (*Node, error) {
	if opt.Durable.Dir == "" || peer == "" {
		return nil, fmt.Errorf("rebalance: join needs a data directory and a peer")
	}
	start := time.Now()
	raw, seq, err := Snapshot(ctx, peer)
	if err != nil {
		return nil, err
	}
	if err := wal.WriteBootstrap(opt.Durable.Dir, raw, nil); err != nil {
		return nil, err
	}
	compact := opt.Delta.AutoCompact
	opt.Delta.AutoCompact = false
	up, err := skycube.OpenUpdater(opt)
	if err != nil {
		return nil, fmt.Errorf("rebalance: boot %s snapshot: %w", peer, err)
	}
	n := &Node{Updater: up, Cursor: Cursor{From: seq}, peer: peer,
		metrics: obs.NewRebalanceMetrics(opt.Metrics), compact: compact}
	n.metrics.Bootstrap(time.Since(start), len(raw), up.Replayed())
	if opt.Durable.Logger != nil {
		opt.Durable.Logger.Printf("rebalance: joined from %s at epoch %d (%d snapshot bytes, segment %d) in %v",
			peer, up.Current().Epoch(), len(raw), seq, time.Since(start))
	}
	return n, nil
}

// CatchUpOnce pulls one tail round from the peer and applies it through the
// node's journaled updater (batch replies included, so a retried batch
// replays on the copy too). It returns
// how many records were applied and whether the round found the peer's
// frontier already reached (an empty round).
func (n *Node) CatchUpOnce(ctx context.Context) (applied int, caughtUp bool, err error) {
	recs, total, err := Tail(ctx, n.peer, n.Cursor.From, n.Cursor.Skip)
	if err != nil {
		return 0, false, err
	}
	applied, err = wal.Apply(n.Updater.Delta(), recs)
	n.Cursor.Skip += applied
	caughtUp = len(recs) == 0
	n.metrics.CatchUp(applied, caughtUp)
	if err != nil {
		return applied, false, fmt.Errorf("rebalance: catch-up from %s: %w", n.peer, err)
	}
	if n.Cursor.Skip != total {
		return applied, false, fmt.Errorf("rebalance: catch-up cursor %d does not match chain total %d",
			n.Cursor.Skip, total)
	}
	return applied, caughtUp, nil
}

// CatchUp pulls tail rounds until one comes back empty — the peer's durable
// frontier at that moment. Under continuous peer writes the frontier moves;
// callers wanting a hard convergence point quiesce the peer first (the
// coordinator's split cutover gates writes around its final CatchUp).
func (n *Node) CatchUp(ctx context.Context) (int, error) {
	totalApplied := 0
	for {
		if err := ctx.Err(); err != nil {
			return totalApplied, err
		}
		applied, caughtUp, err := n.CatchUpOnce(ctx)
		totalApplied += applied
		if err != nil {
			return totalApplied, err
		}
		if caughtUp {
			return totalApplied, nil
		}
	}
}

// bootstrapAttempts bounds how often Bootstrap restarts after the peer's
// checkpoint truncates the tail chain mid-join.
const bootstrapAttempts = 3

// Bootstrap is Join plus CatchUp, restarting from a fresh snapshot when the
// peer's checkpointing truncates the tail chain mid-join (rare: it requires
// a full checkpoint interval of writes to land during the join). The
// node's compactor stays off until Detach.
func Bootstrap(ctx context.Context, peer string, opt skycube.Options) (*Node, error) {
	var lastErr error
	for attempt := 0; attempt < bootstrapAttempts; attempt++ {
		if attempt > 0 {
			if err := wal.WipeForRejoin(opt.Durable.Dir); err != nil {
				return nil, err
			}
		}
		n, err := Join(ctx, peer, opt)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, err
			}
			continue
		}
		if _, err := n.CatchUp(ctx); err != nil {
			n.Updater.Close()
			lastErr = err
			if errors.Is(err, wal.ErrTailTruncated) {
				continue
			}
			return nil, err
		}
		return n, nil
	}
	return nil, fmt.Errorf("rebalance: bootstrap from %s failed after %d attempts: %w",
		peer, bootstrapAttempts, lastErr)
}
