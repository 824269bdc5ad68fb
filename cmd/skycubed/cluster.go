package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"skycube"
	"skycube/internal/cluster"
	"skycube/internal/rebalance"
)

// shardServeOptions assembles a shard node's ShardOptions from the
// relevant flags.
func shardServeOptions(idBase, idStride int,
	cacheEntries int, noCache bool, tracing traceOptions) cluster.ShardOptions {
	return cluster.ShardOptions{
		IDBase:       idBase,
		IDStride:     idStride,
		Logger:       log.New(os.Stderr, "skycubed: ", log.LstdFlags),
		CacheEntries: cacheEntries,
		DisableCache: noCache,
		Requests:     tracing.ring,
		SampleEvery:  tracing.sampleEvery,
		SlowQuery:    tracing.slowQuery,
	}
}

// runShard serves a maintained node: snapshot reads, the mutation
// endpoints and the /shard/* cluster protocol, with local rows mapped to
// global ids by the scheme its state carries (set from -id-base/-id-stride
// on its first start, extended by a split's seal; without them row i is id
// i, so a lone node is the one-shard cluster). The node's state has three
// sources, and only where its updater comes from depends on which:
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
// Each of the three restores the id scheme with the rest of the state.
//
// With -peers, a node that recovered locally runs anti-entropy before it
// reports ready: if a peer's epoch is ahead — this node missed writes while
// it was down — the stale directory is wiped and the state re-bootstrapped
// from the freshest peer.
func runShard(addr string, ds *skycube.Dataset, joinFrom, peerList string,
	opt skycube.Options, sopt cluster.ShardOptions, withPprof bool) {
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
		if source, err = rebalance.Bootstrap(ctx, peer, opt); err == nil {
			up = source.Updater
			origin = fmt.Sprintf("joined from %s, %d tail records", peer, source.Cursor.Skip)
		}
	case ds != nil:
		if opt.Delta.IDSegments, err = sopt.IDSegments(); err == nil {
			up, err = skycube.NewUpdater(ds, opt)
		}
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
	serveAndDrain(addr, g, sh, "GET /info, /skyline?dims=0,2[&epoch=N], /membership?id=17, /updates, /healthz, /metrics, /shard/cuboid?subspace=N (binary frame), /shard/info, /shard/snapshot, /shard/tail; POST /insert, /delete, /flush, /compact")
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
		mountPprof(mux, true)
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
