// Command skycubed builds the skycube of a dataset file and answers
// subspace skyline queries against it.
//
// Usage:
//
//	skycubed -algo MDMC -threads 8 [-gpus 1] [-cpu-also] [-max-level 4] \
//	         [-trace build.json] [-progress] [-query 0,2 -query 1] data.txt
//	skycubed -serve :8080 [-pprof] data.txt
//	skycubed -serve :8080 -shard [-data-dir DIR] data.txt
//	skycubed -serve :9001 -shard -id-base 0 -id-stride 2 part-0-of-2.txt
//	skycubed -serve :8080 -coordinator -shards http://a:9001,http://b:9002 -replicas 1
//
// With no -query flags it prints summary statistics; each -query flag names
// a subspace as a comma-separated dimension list and prints its skyline.
// With -serve, the built skycube is exposed over HTTP (GET /info,
// /skyline?dims=0,2, /membership?id=17, plus /buildinfo, /metrics and
// /trace); the server drains in-flight requests and exits cleanly on
// SIGINT/SIGTERM. -trace writes the build's span timeline as Chrome
// trace_event JSON (open in about://tracing or ui.perfetto.dev); -progress
// reports build progress on stderr; -pprof additionally mounts
// net/http/pprof under /debug/pprof/ on the serving mux.
//
// -shard serves a maintained node: reads serve MVCC snapshots (pin one with
// ?epoch=N), POST /insert, /delete, /flush, /compact mutate the cube
// incrementally, and -compact-fraction tunes when the background compactor
// folds the accumulated overlay into a fresh base. -data-dir makes it
// durable, and a durable node restarts from its directory alone. The same
// node is a cluster shard: it also serves /shard/cuboid and /shard/info,
// with -id-base/-id-stride mapping local rows to global ids from the node's
// first start on (without them, row i is id i — a one-node cluster);
// -coordinator serves the cluster's public surface over a shard map given
// via -shards (consecutive URLs grouped into replica sets of -replicas),
// with hedged reads, retries and per-replica circuit breakers. See README
// "Cluster mode".
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"skycube"
	"skycube/internal/obs"
	"skycube/internal/server"
)

// traceOptions bundles the serving-mode tracing flags (-trace-sample,
// -slow-query, -debug-requests) for the run* helpers.
type traceOptions struct {
	ring        *obs.RequestRing
	sampleEvery int
	slowQuery   time.Duration
}

// requestRing builds the request ring the tracing flags ask for: nil (no
// tracing surface) when both are zero; otherwise sized by -debug-requests
// (obs.DefaultRingSize when only -trace-sample is set).
func requestRing(sampleEvery, ringSize int) *obs.RequestRing {
	if sampleEvery <= 0 && ringSize <= 0 {
		return nil
	}
	return obs.NewRequestRing(ringSize)
}

type queryList []string

func (q *queryList) String() string { return strings.Join(*q, ";") }
func (q *queryList) Set(v string) error {
	*q = append(*q, v)
	return nil
}

func main() {
	algoName := flag.String("algo", "MDMC", "algorithm: MDMC, STSC, SDSC, PQSkycube, QSkycube")
	threads := flag.Int("threads", runtime.NumCPU(), "CPU worker threads")
	gpus := flag.Int("gpus", 0, "number of modelled GTX 980 devices to use (SDSC/MDMC)")
	cpuAlso := flag.Bool("cpu-also", false, "use the CPU alongside the GPUs (cross-device)")
	maxLevel := flag.Int("max-level", 0, "materialise only subspaces with ≤ this many dimensions (0 = all)")
	var queries queryList
	flag.Var(&queries, "query", "subspace to print, as comma-separated dimension indices (repeatable)")
	serve := flag.String("serve", "", "address to serve the skycube over HTTP (e.g. :8080)")
	compactFraction := flag.Float64("compact-fraction", 0, "with -shard: background-compact when the overlay exceeds this fraction of the base (0 = default 0.25)")
	traceFile := flag.String("trace", "", "write the build trace as Chrome trace_event JSON to this file (not with -shard)")
	progress := flag.Bool("progress", false, "report build progress on stderr")
	pprofFlag := flag.Bool("pprof", false, "with -serve: mount net/http/pprof under /debug/pprof/")
	shardMode := flag.Bool("shard", false, "with -serve: run a maintained node (inserts, deletes, and the cluster shard protocol) over this data file")
	idBase := flag.Int("id-base", 0, "with -shard: global id of local row 0; takes effect on a shard's first start only (its state keeps the scheme)")
	idStride := flag.Int("id-stride", 0, "with -shard: global id step between consecutive local rows (shard count for round-robin partitions); 0 = not given (stride 1 on a first start); takes effect on a shard's first start only")
	joinFrom := flag.String("join-from", "", "with -shard -data-dir: bootstrap this node's state from a peer shard's snapshot stream instead of a data file")
	peerList := flag.String("peers", "", "with -shard -data-dir: comma-separated peer replica URLs for anti-entropy — a restart that recovered behind a peer wipes and re-bootstraps before reporting ready")
	coordinator := flag.Bool("coordinator", false, "with -serve: run as a cluster coordinator (no data file)")
	shardURLs := flag.String("shards", "", "with -coordinator: comma-separated shard replica URLs")
	replicas := flag.Int("replicas", 1, "with -coordinator: replicas per shard (consecutive -shards URLs are grouped)")
	clusterTimeout := flag.Duration("cluster-timeout", 0, "with -coordinator: per-attempt shard request timeout (0 = default 2s)")
	hedgeDelay := flag.Duration("hedge-delay", 0, "with -coordinator: delay before hedging a slow read to a second replica (0 = default 50ms, negative disables)")
	cacheEntries := flag.Int("cache-entries", 0, "with -serve: LRU bound of the epoch-keyed response cache (0 = default 4096)")
	noCache := flag.Bool("no-cache", false, "with -serve: disable response caching (the ETag/304 contract remains)")
	dataDir := flag.String("data-dir", "", "with -shard: persist mutations to a write-ahead log and epoch snapshots in this directory, recovering from it on startup (empty = in-memory)")
	fsyncPolicy := flag.String("fsync", "always", "with -data-dir: WAL fsync policy — always (group-committed per ack), interval (timer), never")
	checkpointEvery := flag.Int("checkpoint-every", 0, "with -data-dir: WAL records between background checkpoints (0 = default 4096, negative disables)")
	traceSample := flag.Int("trace-sample", 0, "with -serve: trace one in N requests into /debug/requests (0 = only requests carrying a traceparent header)")
	slowQuery := flag.Duration("slow-query", 0, "with -serve: log one structured line (with trace id) per request at least this slow (0 = off)")
	debugRequests := flag.Int("debug-requests", 0, "with -serve: request-ring size behind GET /debug/requests (0 = off unless -trace-sample is set, then 256)")
	flag.Parse()
	fmt.Fprintf(os.Stderr, "skycubed: dominance kernel: %s\n", skycube.KernelStats().Impl)

	tracing := traceOptions{
		ring:        requestRing(*traceSample, *debugRequests),
		sampleEvery: *traceSample,
		slowQuery:   *slowQuery,
	}

	if *coordinator {
		if *serve == "" {
			fmt.Fprintln(os.Stderr, "skycubed: -coordinator requires -serve")
			os.Exit(2)
		}
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "skycubed: -coordinator takes no data file")
			os.Exit(2)
		}
		runCoordinatorMode(*serve, *shardURLs, *replicas, *clusterTimeout, *hedgeDelay, *pprofFlag, *cacheEntries, *noCache, tracing)
		return
	}

	algo, ok := map[string]skycube.Algorithm{
		"MDMC": skycube.MDMC, "STSC": skycube.STSC, "SDSC": skycube.SDSC,
		"PQSkycube": skycube.PQSkycube, "QSkycube": skycube.QSkycube,
	}[*algoName]
	if !ok {
		fmt.Fprintf(os.Stderr, "skycubed: unknown algorithm %q\n", *algoName)
		os.Exit(2)
	}
	opt := skycube.Options{
		Algorithm: algo,
		Threads:   *threads,
		MaxLevel:  *maxLevel,
		CPUAlso:   *cpuAlso,
	}
	for i := 0; i < *gpus; i++ {
		opt.GPUs = append(opt.GPUs, skycube.GTX980)
	}
	if !*shardMode && (*traceFile != "" || *serve != "") {
		opt.Trace = skycube.NewTrace()
	}
	if *serve != "" {
		opt.Metrics = skycube.NewMetrics()
	}
	if *progress {
		opt.Progress = stderrProgress()
	}
	// Maintained nodes (-shard) compact in the background and persist to
	// -data-dir when it is set.
	opt.Delta = skycube.DeltaOptions{AutoCompact: true, CompactFraction: *compactFraction}
	opt.Durable = durableOptions(*dataDir, *fsyncPolicy, *checkpointEvery)

	if *shardMode {
		usage := ""
		switch {
		case *serve == "":
			usage = "-shard requires -serve"
		case *joinFrom != "" && *dataDir == "":
			usage = "-join-from requires -shard, -serve and -data-dir"
		case *joinFrom != "" && flag.NArg() != 0:
			usage = "-join-from takes no data file (state comes from the peer)"
		case *idBase < 0 || *idStride < 0:
			usage = "-id-base and -id-stride must not be negative"
		case *traceFile != "":
			usage = "-trace writes a build's trace, and a -shard node writes none"
		case flag.NArg() > 1 || flag.NArg() == 0 && *dataDir == "":
			usage = "usage: skycubed -shard -serve ADDR [flags] (part.txt | -data-dir DIR [-join-from URL])"
		}
		if usage != "" {
			fmt.Fprintln(os.Stderr, "skycubed:", usage)
			os.Exit(2)
		}
		var ds *skycube.Dataset
		if flag.NArg() == 1 {
			ds = readDataset(flag.Arg(0))
		}
		runShard(*serve, ds, *joinFrom, *peerList, opt,
			shardServeOptions(*idBase, *idStride, *cacheEntries, *noCache, tracing),
			*pprofFlag)
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: skycubed [flags] data.txt")
		flag.PrintDefaults()
		os.Exit(2)
	}
	ds := readDataset(flag.Arg(0))

	cube, stats, err := skycube.Build(ds, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skycubed:", err)
		os.Exit(1)
	}

	fmt.Printf("built %s skycube of %d×%d in %v (%d stored ids",
		algo, ds.Len(), ds.Dims(), stats.Elapsed.Round(stats.Elapsed/1000+1), cube.IDCount())
	if cube.MaxLevel() < ds.Dims() {
		fmt.Printf(", partial to level %d", cube.MaxLevel())
	}
	fmt.Println(")")
	for _, sh := range stats.Shares {
		fmt.Printf("  %-8s %8d tasks (%.1f%%)\n", sh.Name, sh.Tasks, sh.Fraction*100)
	}
	if r := stats.Sched.Retunes; r > 0 {
		fmt.Printf("  scheduler: %d chunk retunes\n", r)
	}

	if *traceFile != "" {
		if err := writeTrace(*traceFile, opt.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "skycubed:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote build trace (%d spans) to %s\n", opt.Trace.Len(), *traceFile)
	}

	if *serve != "" {
		runServer(*serve, cube, ds, opt, stats, algo, *pprofFlag, *cacheEntries, *noCache, tracing)
		return
	}
	if len(queries) == 0 {
		full := skycube.FullSpace(ds.Dims())
		fmt.Printf("full-space skyline: %d points\n", len(cube.Skyline(full)))
		return
	}
	for _, q := range queries {
		delta, err := parseSubspace(q, ds.Dims())
		if err != nil {
			fmt.Fprintln(os.Stderr, "skycubed:", err)
			os.Exit(2)
		}
		ids := cube.Skyline(delta)
		fmt.Printf("skyline of dims {%s} (δ=%d): %d points: %v\n", q, delta, len(ids), ids)
	}
}

// runServer serves the cube until SIGINT/SIGTERM, then drains in-flight
// requests for up to ten seconds before exiting.
func runServer(addr string, cube skycube.Skycube, ds *skycube.Dataset,
	opt skycube.Options, stats skycube.Stats, algo skycube.Algorithm, withPprof bool,
	cacheEntries int, noCache bool, tracing traceOptions) {
	srv := server.NewWith(cube, ds, server.Options{
		BuildInfo: &server.BuildInfo{
			Algorithm:       algo.String(),
			Points:          ds.Len(),
			Dims:            ds.Dims(),
			MaxLevel:        cube.MaxLevel(),
			ElapsedSeconds:  stats.Elapsed.Seconds(),
			Shares:          stats.Shares,
			GPUModelSeconds: stats.GPUModelSeconds,
		},
		Metrics:      opt.Metrics,
		Trace:        opt.Trace,
		Logger:       log.New(os.Stderr, "skycubed: ", log.LstdFlags),
		CacheEntries: cacheEntries,
		DisableCache: noCache,
		Requests:     tracing.ring,
		SampleEvery:  tracing.sampleEvery,
		SlowQuery:    tracing.slowQuery,
	})
	mountPprof(srv, withPprof)
	serveAndDrain(addr, nil, srv,
		"GET /info, /skyline?dims=0,2, /membership?id=17, /buildinfo, /metrics, /trace")
}

// durableOptions builds the persistence options the -data-dir/-fsync/
// -checkpoint-every flags ask for (zero value when -data-dir is unset).
func durableOptions(dir, fsync string, checkpointEvery int) skycube.DurableOptions {
	if dir == "" {
		return skycube.DurableOptions{}
	}
	return skycube.DurableOptions{
		Dir:             dir,
		Fsync:           fsync,
		CheckpointEvery: checkpointEvery,
		Logger:          log.New(os.Stderr, "skycubed: ", log.LstdFlags),
	}
}

// gatedServer is a listener started before the node's state exists: the
// startup gate answers 503 not-ready until serveAndDrain installs the real
// handler after recovery.
type gatedServer struct {
	gate    *server.StartupGate
	httpSrv *http.Server
	errCh   chan error
}

// maybeStartGated starts the gated listener when a data directory is
// configured; nil otherwise (in-memory nodes build state before binding).
func maybeStartGated(addr, dataDir string) *gatedServer {
	if dataDir == "" {
		return nil
	}
	g := &gatedServer{gate: server.NewStartupGate(), errCh: make(chan error, 1)}
	g.httpSrv = &http.Server{Addr: addr, Handler: g.gate}
	go func() { g.errCh <- g.httpSrv.ListenAndServe() }()
	fmt.Printf("listening on %s (503 not-ready until recovery completes)\n", addr)
	return g
}

// mountPprof mounts net/http/pprof on a server.Server or an http.ServeMux
// when on is set.
func mountPprof(m interface{ Handle(string, http.Handler) }, on bool) {
	if !on {
		return
	}
	m.Handle("/debug/pprof/", http.HandlerFunc(pprof.Index))
	m.Handle("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
	m.Handle("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
	m.Handle("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
	m.Handle("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
}

// serveAndDrain serves handler until SIGINT/SIGTERM, then drains in-flight
// requests for up to ten seconds. g is the gated listener a data directory
// put up before recovery — it now opens onto handler — or nil, and then a
// listener binds here.
func serveAndDrain(addr string, g *gatedServer, handler http.Handler, endpoints string) {
	if g == nil {
		g = &gatedServer{httpSrv: &http.Server{Addr: addr, Handler: handler}, errCh: make(chan error, 1)}
		go func() { g.errCh <- g.httpSrv.ListenAndServe() }()
	} else {
		g.gate.Open(handler)
	}
	fmt.Printf("serving on %s (%s)\n", addr, endpoints)
	drainOnSignal(g.httpSrv, g.errCh)
}

// drainOnSignal blocks until SIGINT/SIGTERM (or a listener error), then
// drains in-flight requests for up to ten seconds. It returns — rather
// than exits — on the clean path, so callers' deferred closers run:
// that is what syncs and closes the WAL, making a SIGTERM stop lose zero
// acknowledged writes.
func drainOnSignal(httpSrv *http.Server, errCh chan error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "skycubed:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "skycubed: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "skycubed: shutdown:", err)
		os.Exit(1)
	}
}

// readDataset loads a dataset file, exiting on any error.
func readDataset(path string) *skycube.Dataset {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skycubed:", err)
		os.Exit(1)
	}
	defer f.Close()
	ds, err := skycube.ReadDataset(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skycubed:", err)
		os.Exit(1)
	}
	return ds
}

// stderrProgress returns a ProgressFunc that overwrites one stderr line,
// throttled so concurrent build workers don't flood the terminal.
func stderrProgress() skycube.ProgressFunc {
	var last atomic.Int64
	return func(p skycube.Progress) {
		done, total := p.CuboidsDone, p.TotalCuboids
		unit := "cuboids"
		if p.Algorithm == skycube.MDMC {
			done, total, unit = p.PointsDone, p.TotalPoints, "points"
		}
		now := time.Now().UnixMilli()
		prev := last.Load()
		// One update per 100 ms, plus always the final one.
		if done < total && (now-prev < 100 || !last.CompareAndSwap(prev, now)) {
			return
		}
		fmt.Fprintf(os.Stderr, "\rskycubed: %s %d/%d %s", p.Algorithm, done, total, unit)
		if done >= total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// writeTrace dumps the trace as Chrome trace_event JSON.
func writeTrace(path string, tr *skycube.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseSubspace(spec string, d int) (skycube.Subspace, error) {
	var delta skycube.Subspace
	for _, part := range strings.Split(spec, ",") {
		dim, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || dim < 0 || dim >= d {
			return 0, fmt.Errorf("bad dimension %q in subspace %q (need 0..%d)", part, spec, d-1)
		}
		delta |= skycube.SubspaceOf(dim)
	}
	if delta == 0 {
		return 0, fmt.Errorf("empty subspace %q", spec)
	}
	return delta, nil
}
