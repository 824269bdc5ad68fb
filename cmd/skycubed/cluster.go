package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"skycube"
	"skycube/internal/cluster"
	"skycube/internal/delta"
	"skycube/internal/rebalance"
	"skycube/internal/wal"
)

// shardEndpoints is the banner line every shard-mode variant prints.
const shardEndpoints = "GET /shard/cuboid?subspace=N (binary frame), /shard/info, /shard/snapshot, /shard/tail, /skyline, /healthz, /metrics; POST /insert, /delete, /flush"

// parseIDSegments parses the -id-segments flag: a comma-separated list of
// start:base:stride triples (e.g. "0:1:2,500:268435456:1").
func parseIDSegments(spec string) ([]cluster.IDSegment, error) {
	if spec == "" {
		return nil, nil
	}
	var segs []cluster.IDSegment
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad id segment %q (need start:base:stride)", part)
		}
		var vals [3]int64
		for i, f := range fields {
			v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad id segment %q: %v", part, err)
			}
			vals[i] = v
		}
		segs = append(segs, cluster.IDSegment{
			Start: int32(vals[0]), Base: int32(vals[1]), Stride: int32(vals[2]),
		})
	}
	return segs, nil
}

// shardServeOptions assembles the ShardOptions shared by every shard-mode
// variant from the relevant flags.
func shardServeOptions(idBase, idStride int, segs []cluster.IDSegment,
	maxBody int64, cacheEntries int, noCache bool, tracing traceOptions) cluster.ShardOptions {
	return cluster.ShardOptions{
		IDBase:       idBase,
		IDStride:     idStride,
		IDSegments:   segs,
		Logger:       log.New(os.Stderr, "skycubed: ", log.LstdFlags),
		MaxBodyBytes: maxBody,
		CacheEntries: cacheEntries,
		DisableCache: noCache,
		Requests:     tracing.ring,
		SampleEvery:  tracing.sampleEvery,
		SlowQuery:    tracing.slowQuery,
	}
}

// runShardMode serves one horizontal partition as a cluster shard node:
// the full single-node endpoint set plus the /shard/* cluster protocol,
// with local rows mapped to global ids via -id-base/-id-stride (or a full
// -id-segments scheme). With -peers and -data-dir set, recovery runs
// anti-entropy first: if a peer's epoch is ahead of what local recovery
// produced — this node missed writes while it was down — the stale
// directory is wiped and the state re-bootstrapped from the freshest peer
// before the node ever reports ready.
func runShardMode(addr string, ds *skycube.Dataset, opt skycube.Options,
	sopt cluster.ShardOptions, peerList string, withPprof bool, g *gatedServer) {
	sopt.Metrics = opt.Metrics
	sh, err := cluster.NewShard(ds, opt, sopt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skycubed:", err)
		os.Exit(1)
	}
	if peers := splitNonEmpty(peerList); len(peers) > 0 && opt.Durable.Dir != "" {
		sh, err = antiEntropy(sh, peers, opt, sopt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skycubed:", err)
			os.Exit(1)
		}
	}
	defer sh.Close()
	snap := sh.Updater().Current()
	fmt.Printf("shard node over %d×%d (%d live, epoch %d, %d WAL records replayed)\n",
		ds.Len(), ds.Dims(), snap.Live(), snap.Epoch(), sh.Updater().Replayed())
	mountPprof(sh.Server(), withPprof)
	if g != nil {
		g.openAndDrain(sh, shardEndpoints)
		return
	}
	serveAndDrain(addr, sh, shardEndpoints)
}

// runRestartingShard serves a durable shard purely from its data directory
// (-shard -data-dir with no data file): recovery rebuilds the state from
// the newest checkpoint and WAL tail. The partition file stopped being
// consulted at the first checkpoint, and a split child bootstrapped with
// -join-from never had one — requiring the file on restart would force
// operators to invent it. Anti-entropy (-peers) applies exactly as for a
// file-seeded shard.
func runRestartingShard(addr string, opt skycube.Options, sopt cluster.ShardOptions,
	peerList string, withPprof bool, g *gatedServer) {
	sopt.Metrics = opt.Metrics
	up, err := skycube.OpenUpdater(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skycubed:", err)
		os.Exit(1)
	}
	sh, err := cluster.NewShardFrom(up, sopt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skycubed:", err)
		os.Exit(1)
	}
	if peers := splitNonEmpty(peerList); len(peers) > 0 {
		sh, err = antiEntropy(sh, peers, opt, sopt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skycubed:", err)
			os.Exit(1)
		}
	}
	defer sh.Close()
	snap := sh.Updater().Current()
	fmt.Printf("shard node restarted from %s (%d live, epoch %d, %d WAL records replayed)\n",
		opt.Durable.Dir, snap.Live(), snap.Epoch(), sh.Updater().Replayed())
	mountPprof(sh.Server(), withPprof)
	if g != nil {
		g.openAndDrain(sh, shardEndpoints)
		return
	}
	serveAndDrain(addr, sh, shardEndpoints)
}

// rebalanceOptions translates the durability flags into the options a
// rebalance bootstrap needs: the same delta and WAL configuration the node
// would use for a fresh local build, rooted at the data directory.
func rebalanceOptions(peer string, dopt skycube.DurableOptions, threads int, compactFraction float64) rebalance.Options {
	return rebalance.Options{
		Dir:  dopt.Dir,
		Peer: strings.TrimRight(peer, "/"),
		Delta: delta.Options{
			Threads:         threads,
			CompactFraction: compactFraction,
		},
		WAL: wal.Options{
			Fsync:           dopt.Fsync,
			SyncInterval:    dopt.SyncInterval,
			CheckpointEvery: dopt.CheckpointEvery,
			Logger:          dopt.Logger,
		},
		Logger: dopt.Logger,
	}
}

// antiEntropy compares the locally recovered frontier against the peers'.
// If any peer is ahead, the local state is stale — this node was down while
// the replica group accepted writes — so it is discarded and re-bootstrapped
// from the freshest peer. Unreachable peers are skipped: with every peer
// down there is nothing to compare against, and serving the recovered state
// is strictly better than refusing to start.
func antiEntropy(sh *cluster.Shard, peers []string, opt skycube.Options, sopt cluster.ShardOptions) (*cluster.Shard, error) {
	ctx := context.Background()
	snap := sh.Updater().Current()
	local := rebalance.Freshness{Epoch: snap.Epoch(), Live: snap.Live()}
	rc := &rebalance.Client{}
	var fresh []rebalance.Freshness
	var urls []string
	for _, p := range peers {
		f, err := rc.Freshness(ctx, strings.TrimRight(p, "/"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "skycubed: anti-entropy: peer %s unreachable: %v\n", p, err)
			continue
		}
		fresh = append(fresh, f)
		urls = append(urls, p)
	}
	behind, freshest := rebalance.Behind(local, fresh)
	if !behind {
		fmt.Printf("anti-entropy: local epoch %d is current across %d reachable peer(s)\n",
			local.Epoch, len(fresh))
		return sh, nil
	}
	fmt.Printf("anti-entropy: local epoch %d is behind peer %s (epoch %d): re-bootstrapping\n",
		local.Epoch, urls[freshest], fresh[freshest].Epoch)
	sh.Close()
	if err := wal.WipeForRejoin(opt.Durable.Dir); err != nil {
		return nil, err
	}
	node, err := rebalance.Bootstrap(ctx, rebalanceOptions(urls[freshest], opt.Durable, opt.Threads, opt.Delta.CompactFraction))
	if err != nil {
		return nil, err
	}
	node.Updater.StartAutoCompact()
	up := skycube.AdoptUpdater(node.Updater, node.Store, node.Replayed)
	sopt.Metrics = opt.Metrics
	sopt.Source = node
	return cluster.NewShardFrom(up, sopt)
}

// runJoiningShard bootstraps a brand-new shard replica from a peer's
// snapshot stream (-join-from): no data file, no local history — the data
// directory is materialized from the peer's checkpoint, the WAL tail
// replayed through the local journaled updater, and the node starts serving
// only once caught up. The bootstrap source stays attached, so a subsequent
// split cutover can POST /shard/sync for the final write-quiesced catch-up.
//
// Unless the operator pinned an id scheme (-id-base/-id-stride/
// -id-segments), the joiner adopts the peer's scheme from /shard/info: the
// copied rows carry the peer's global ids, so interpreting them with the
// stride-1 default would mis-assign ownership — a later split prune would
// then drop rows both sides believe the other owns.
func runJoiningShard(addr, peer string, dopt skycube.DurableOptions,
	threads int, compactFraction float64, sopt cluster.ShardOptions,
	inheritIDs bool, withPprof bool, g *gatedServer) {
	peer = strings.TrimRight(peer, "/")
	if inheritIDs {
		f, err := (&rebalance.Client{}).Freshness(context.Background(), peer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skycubed: -join-from peer id scheme:", err)
			os.Exit(1)
		}
		if len(f.IDSegments) > 0 {
			segs := make([]cluster.IDSegment, len(f.IDSegments))
			for i, s := range f.IDSegments {
				segs[i] = cluster.IDSegment{Start: s.Start, Base: s.Base, Stride: s.Stride}
			}
			sopt.IDBase, sopt.IDStride, sopt.IDSegments = 0, 0, segs
			fmt.Printf("inherited id scheme from %s (%d segment(s))\n", peer, len(segs))
		}
	}
	node, err := rebalance.Bootstrap(context.Background(), rebalanceOptions(peer, dopt, threads, compactFraction))
	if err != nil {
		fmt.Fprintln(os.Stderr, "skycubed:", err)
		os.Exit(1)
	}
	node.Updater.StartAutoCompact()
	up := skycube.AdoptUpdater(node.Updater, node.Store, node.Replayed)
	sopt.Metrics = skycube.NewMetrics()
	sopt.Source = node
	sh, err := cluster.NewShardFrom(up, sopt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skycubed:", err)
		os.Exit(1)
	}
	defer sh.Close()
	snap := up.Current()
	fmt.Printf("joined from %s (%d live, epoch %d, %d records replayed)\n",
		peer, snap.Live(), snap.Epoch(), node.Replayed+node.Cursor.Skip)
	mountPprof(sh.Server(), withPprof)
	if g != nil {
		g.openAndDrain(sh, shardEndpoints)
		return
	}
	serveAndDrain(addr, sh, shardEndpoints)
}

// runCoordinatorMode serves the cluster's public surface over a shard map
// given as a flat URL list: with -replicas R, each consecutive run of R
// URLs is one shard's replica set.
func runCoordinatorMode(addr, shardList string, replicas int,
	timeout, hedgeDelay time.Duration, withPprof bool, cacheEntries int, noCache bool,
	tracing traceOptions) {
	urls := splitNonEmpty(shardList)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "skycubed: -coordinator requires -shards url,url,...")
		os.Exit(2)
	}
	if replicas <= 0 {
		replicas = 1
	}
	if len(urls)%replicas != 0 {
		fmt.Fprintf(os.Stderr, "skycubed: %d shard URLs do not divide into replica sets of %d\n",
			len(urls), replicas)
		os.Exit(2)
	}
	var specs []cluster.ShardSpec
	for i := 0; i < len(urls); i += replicas {
		specs = append(specs, cluster.ShardSpec{Replicas: urls[i : i+replicas]})
	}
	metrics := skycube.NewMetrics()
	coord, err := cluster.NewCoordinator(specs, cluster.CoordinatorOptions{
		Timeout:      timeout,
		HedgeDelay:   hedgeDelay,
		Metrics:      metrics,
		Logger:       log.New(os.Stderr, "skycubed: ", log.LstdFlags),
		CacheEntries: cacheEntries,
		DisableCache: noCache,
		Requests:     tracing.ring,
		SampleEvery:  tracing.sampleEvery,
		SlowQuery:    tracing.slowQuery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "skycubed:", err)
		os.Exit(1)
	}
	fmt.Printf("coordinator over %d shard(s) × %d replica(s)\n", len(specs), replicas)

	var handler http.Handler = coord
	if withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", coord)
		mountPprofMux(mux)
		handler = mux
	}
	endpoints := "GET /skyline?dims=0,2[&explain=1], /info, /healthz, /metrics; POST /insert, /delete, /flush"
	if tracing.ring != nil {
		endpoints += "; GET /debug/requests, /trace/query?id=..."
	}
	serveAndDrain(addr, handler, endpoints)
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
