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
	"skycube/internal/rebalance"
)

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

// shardServeOptions assembles a shard node's ShardOptions from the
// relevant flags.
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

// runShard serves one horizontal partition as a cluster shard node: the
// full single-node endpoint set plus the /shard/* cluster protocol, with
// local rows mapped to global ids via -id-base/-id-stride (or a full
// -id-segments scheme). The node's state has three sources, and only
// where its updater comes from depends on which:
//
//   - a partition file (ds): a fresh build, checkpointed into -data-dir
//     when one is set;
//   - the data directory alone: crash recovery from its newest checkpoint
//     and WAL tail — the partition file stopped mattering at the first
//     checkpoint, and a joined replica never had one;
//   - a peer (-join-from): its snapshot stream materializes the directory,
//     which boots through the same recovery and then replays the peer's
//     WAL tail. The bootstrap source stays attached, so a split cutover
//     can POST /shard/sync for the final write-quiesced catch-up.
//
// With -peers, a node that recovered locally runs anti-entropy before it
// reports ready: if a peer's epoch is ahead — this node missed writes while
// it was down — the stale directory is wiped and the state re-bootstrapped
// from the freshest peer.
func runShard(addr string, ds *skycube.Dataset, joinFrom, peerList string,
	opt skycube.Options, sopt cluster.ShardOptions, inheritIDs, withPprof bool) {
	// With a data directory, the listener starts before the state exists:
	// the gate answers 503 not-ready while the snapshot loads and the WAL
	// tail replays, so probes and the coordinator see "recovering" rather
	// than connection-refused.
	g := maybeStartGated(addr, opt.Durable.Dir)
	ctx := context.Background()
	var (
		up     *skycube.Updater
		source *rebalance.Node
		origin string
		err    error
	)
	switch {
	case joinFrom != "":
		peer := strings.TrimRight(joinFrom, "/")
		if inheritIDs {
			sopt = inheritIDScheme(peer, sopt)
		}
		if source, err = rebalance.Bootstrap(ctx, peer, opt); err == nil {
			up = source.Updater
			origin = fmt.Sprintf("joined from %s, %d tail records", peer, source.Cursor.Skip)
		}
	case ds != nil:
		up, err = skycube.NewUpdater(ds, opt)
		origin = fmt.Sprintf("over %d×%d", ds.Len(), ds.Dims())
	default:
		up, err = skycube.OpenUpdater(opt)
		origin = "restarted from " + opt.Durable.Dir
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "skycubed:", err)
		os.Exit(1)
	}
	if peers := splitNonEmpty(peerList); len(peers) > 0 && joinFrom == "" && opt.Durable.Dir != "" {
		var verdict string
		source, verdict, err = rebalance.AntiEntropy(ctx, up, peers, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skycubed:", err)
			os.Exit(1)
		}
		fmt.Println(verdict)
		if source != nil {
			up = source.Updater
			origin += ", re-bootstrapped from a fresher peer"
		}
	}
	sopt.Metrics = opt.Metrics
	sopt.Source = source
	sh, err := cluster.NewShardFrom(up, sopt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skycubed:", err)
		os.Exit(1)
	}
	defer sh.Close()
	snap := up.Current()
	fmt.Printf("shard node %s (%d live, epoch %d, %d WAL records replayed)\n",
		origin, snap.Live(), snap.Epoch(), up.Replayed())
	mountPprof(sh.Server(), withPprof)
	serveAndDrain(addr, g, sh, "GET /shard/cuboid?subspace=N (binary frame), /shard/info, /shard/snapshot, /shard/tail, /skyline, /healthz, /metrics; POST /insert, /delete, /flush")
}

// inheritIDScheme adopts the peer's id scheme from /shard/info. A joiner's
// copied rows carry the peer's global ids, so interpreting them with the
// stride-1 default would mis-assign ownership — a later split prune would
// then drop rows both sides believe the other owns. An operator who pinned
// a scheme (-id-base/-id-stride/-id-segments) keeps it.
func inheritIDScheme(peer string, sopt cluster.ShardOptions) cluster.ShardOptions {
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
	return sopt
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
	serveAndDrain(addr, nil, handler, endpoints)
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
