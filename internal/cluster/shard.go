// Package cluster is the scale-out tier of the skycube service: shard
// nodes each own a horizontal partition of the data and serve shard-local
// per-subspace results, and a coordinator scatter-gathers those results
// over HTTP and merges them — with one final dominance filter — into the
// exact global skyline of any queried subspace.
//
// The distribution rests on the distributivity of skyline computation over
// horizontal partitions (Zhang & Zhang, "Computing Skylines on Distributed
// Data"): a globally undominated point is undominated within its partition,
// so the union of shard-local skylines is a superset of the global skyline.
// The merge (mergeFrames) removes the impostors on two lemmas. Foreign-only:
// members of one shard's local skyline do not dominate each other, and a
// dominated candidate is dominated by a member of the global skyline, which
// its own shard ships — so it is probed against other shards' frames only.
// Label: with bit j of a label set iff v_j is below the union's median,
// b ≺ a implies label(a) ⊆ label(b) — so only groups whose label contains the
// candidate's are probed. No shard ever needs another shard's data.
//
// The serving path is engineered for partial failure: replication factor R
// per shard, per-attempt timeouts, capped exponential backoff with jitter,
// hedged reads against a second replica when the first is slow, and a
// per-replica circuit breaker so dead nodes cost nothing. When every
// replica of a shard is down the coordinator answers with an explicit
// partial-result response (HTTP 206 and "partial": true) — degraded is
// visible, never silently wrong.
package cluster

import (
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"skycube"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/rcache"
	"skycube/internal/rebalance"
	"skycube/internal/server"
)

// ShardOptions configure a shard node beyond the build options.
type ShardOptions struct {
	// IDBase/IDStride map the shard's local row r to its global point id
	// IDBase + r*IDStride. Round-robin partitions of K shards use base s,
	// stride K (Dataset.Partition / datagen -shards); range partitions use
	// their start offset and stride 1. The zero value (0, 0) means stride 1
	// from 0 — a single-shard cluster. They take effect on the shard's first
	// start only: the scheme then lives in the updater's checkpointed state,
	// and a later start whose non-zero values disagree with it is refused.
	IDBase, IDStride int
	// Metrics, if non-nil, receives the embedded server's request metrics
	// and enables GET /metrics.
	Metrics *obs.Registry
	// Logger, if non-nil, logs one line per request.
	Logger *log.Logger
	// CacheEntries bounds the shard's response cache, which /shard/cuboid
	// shares with the embedded server's reads (0 = rcache.DefaultEntries).
	CacheEntries int
	// DisableCache turns response memoization off (the ETag/304 contract
	// remains).
	DisableCache bool
	// Requests, if non-nil, enables distributed request tracing on the
	// shard: requests carrying a coordinator-propagated traceparent header
	// (and one in SampleEvery locally-initiated ones) are recorded into the
	// ring, inspectable via GET /debug/requests and harvested by the
	// coordinator's /trace/query assembly.
	Requests *obs.RequestRing
	// SampleEvery admits one in N locally-initiated requests into tracing
	// (0 = trace only coordinator-propagated requests).
	SampleEvery int
	// SlowQuery, when > 0, logs one structured line per request at least
	// this slow.
	SlowQuery time.Duration
	// Source, when non-nil, is the rebalance node this shard was
	// bootstrapped from; it enables POST /shard/sync (pull the source
	// peer's remaining WAL tail — the split cutover's final catch-up), and
	// POST /shard/seal detaches it (rebalance.Node.Detach).
	Source *rebalance.Node
}

// Shard is a shard node: a maintainable skycube over one horizontal
// partition, serving the embedded server's full endpoint set (reads,
// mutations, /healthz, /metrics) plus the cluster protocol:
//
//	GET /shard/cuboid?subspace=N   shard-local S_δ as one binary frame (frame.go):
//	                               global ids and δ's columns
//	GET /shard/info                id mapping, dims, live points, epoch
type Shard struct {
	srv  *server.Server
	up   *skycube.Updater
	dims int

	// scheme is the shard's piecewise local→global id mapping, swapped
	// atomically when a split cutover seals a fresh insert block.
	scheme atomic.Pointer[idScheme]

	// maxGen is the highest coordinator shard-map generation this shard has
	// seen; requests carrying an older one are answered 409 so a stale map
	// holder refreshes instead of acting on dead topology.
	maxGen atomic.Uint64

	// source, when non-nil, is the peer stream this shard bootstrapped from
	// (POST /shard/sync pulls its remaining tail); sourceMu serialises the
	// cursor.
	sourceMu sync.Mutex
	source   *rebalance.Node

	// adminMu serialises the rare mutating admin operations (seal, prune) so
	// their read-modify-write sequences stay atomic.
	adminMu sync.Mutex

	rbm *obs.RebalanceMetrics
}

// NewShard builds the shard's skycube over its partition (via
// skycube.NewUpdater, so coordinator-routed inserts and deletes work) and
// returns the node. Close releases the updater's background goroutines.
// skycubed builds its updater first and calls NewShardFrom; this
// shorthand stays for benchmark/ and the tests.
func NewShard(ds *skycube.Dataset, opt skycube.Options, sopt ShardOptions) (*Shard, error) {
	if sopt.Metrics != nil {
		opt.Metrics = sopt.Metrics // skycube.Metrics is an alias of obs.Registry
	}
	segs, err := sopt.IDSegments()
	if err != nil {
		return nil, err
	}
	opt.Delta.IDSegments = segs
	up, err := skycube.NewUpdater(ds, opt)
	if err != nil {
		return nil, err
	}
	sh, err := NewShardFrom(up, sopt)
	if err != nil {
		up.Close()
		return nil, err
	}
	return sh, nil
}

// NewShardFrom wraps an already-built updater — from a partition file
// (skycube.NewUpdater), the node's data directory (skycube.OpenUpdater) or
// a peer (rebalance.Bootstrap) — as a serving shard node. The
// dimensionality comes from the updater's current snapshot, the id scheme
// from adoptScheme.
func NewShardFrom(up *skycube.Updater, sopt ShardOptions) (*Shard, error) {
	scheme, err := adoptScheme(up, sopt)
	if err != nil {
		return nil, err
	}
	sh := &Shard{
		up:     up,
		dims:   up.Current().Dims(),
		source: sopt.Source,
	}
	sh.scheme.Store(scheme)
	sh.rbm = obs.NewRebalanceMetrics(sopt.Metrics)
	sh.srv = server.NewWith(nil, nil, server.Options{
		Updater:      up,
		Metrics:      sopt.Metrics,
		Logger:       sopt.Logger,
		CacheEntries: sopt.CacheEntries,
		DisableCache: sopt.DisableCache,
		Requests:     sopt.Requests,
		SampleEvery:  sopt.SampleEvery,
		SlowQuery:    sopt.SlowQuery,
		TraceKind:    "shard",
	})
	sh.srv.Handle("/shard/cuboid", http.HandlerFunc(sh.handleCuboid))
	sh.srv.Handle("/shard/info", http.HandlerFunc(sh.handleInfo))
	sh.srv.Handle("/shard/snapshot", http.HandlerFunc(sh.handleSnapshot))
	sh.srv.Handle("/shard/tail", http.HandlerFunc(sh.handleTail))
	sh.srv.Handle("/shard/sync", http.HandlerFunc(sh.handleSync))
	sh.srv.Handle("/shard/seal", http.HandlerFunc(sh.handleSeal))
	sh.srv.Handle("/shard/prune", http.HandlerFunc(sh.handlePrune))
	return sh, nil
}

// IDSegments returns the id scheme IDBase and IDStride give a shard's first
// build (skycube.DeltaOptions.IDSegments), so its first checkpoint carries
// it.
func (o ShardOptions) IDSegments() ([]IDSegment, error) {
	if o.IDBase < 0 || o.IDStride < 0 {
		return nil, fmt.Errorf("cluster: negative id mapping (base %d, stride %d)", o.IDBase, o.IDStride)
	}
	return newIDScheme(o.IDBase, o.IDStride).segs, nil
}

// adoptScheme settles a starting shard's id scheme. One the updater
// started with or restored — from its checkpoint, or from the peer snapshot
// it joined from — wins, and non-zero IDBase/IDStride must match its first
// segment. An updater built without one adopts IDBase/IDStride and
// persists them.
func adoptScheme(up *skycube.Updater, sopt ShardOptions) (*idScheme, error) {
	givenSegs, err := sopt.IDSegments()
	if err != nil {
		return nil, err
	}
	given := &idScheme{segs: givenSegs}
	segs := up.Delta().IDSegments()
	if len(segs) == 0 {
		return given, persistScheme(up, given)
	}
	restored, err := schemeFromSegments(segs)
	if err != nil {
		return nil, fmt.Errorf("cluster: restored id scheme: %w", err)
	}
	if (sopt.IDBase != 0 || sopt.IDStride != 0) && given.segs[0] != restored.segs[0] {
		return nil, fmt.Errorf("cluster: id scheme %+v given, but the shard's state holds %+v",
			given.segs, restored.segs)
	}
	return restored, nil
}

// persistScheme hands scheme to the updater and, on a durable shard,
// checkpoints, so a restart from the data directory alone and every
// snapshot stream a joiner boots from carry it. Schemes change once per
// shard start or split, so a checkpoint stands in for a WAL record type.
func persistScheme(up *skycube.Updater, scheme *idScheme) error {
	up.Delta().SetIDSegments(scheme.segs)
	if st := up.Store(); st != nil {
		if err := st.Checkpoint(up.Delta()); err != nil {
			return fmt.Errorf("cluster: checkpoint id scheme: %w", err)
		}
	}
	return nil
}

// mapGenHeader carries the coordinator's shard-map generation on every
// fan-out request; the shard answers generations older than the highest it
// has seen with 409 Conflict (and the current generation in the same header)
// so a stale map holder refreshes instead of acting on dead topology.
const mapGenHeader = "X-Skycube-Map-Gen"

// ServeHTTP implements http.Handler through the embedded server (so the
// request middleware covers the cluster endpoints too). Requests carrying a
// stale shard-map generation are rejected before they reach any handler.
func (s *Shard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if gs := r.Header.Get(mapGenHeader); gs != "" {
		gen, err := strconv.ParseUint(gs, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad %s header %q", mapGenHeader, gs), http.StatusBadRequest)
			return
		}
		for {
			cur := s.maxGen.Load()
			if gen < cur {
				s.rbm.StaleGen()
				w.Header().Set(mapGenHeader, strconv.FormatUint(cur, 10))
				http.Error(w, fmt.Sprintf("stale shard map generation %d (current %d)", gen, cur),
					http.StatusConflict)
				return
			}
			if gen == cur || s.maxGen.CompareAndSwap(cur, gen) {
				break
			}
		}
	}
	s.srv.ServeHTTP(w, r)
}

// Updater exposes the shard's updater (tests and embedding).
func (s *Shard) Updater() *skycube.Updater { return s.up }

// Server exposes the embedded HTTP server (e.g. for SetReady).
func (s *Shard) Server() *server.Server { return s.srv }

// Close stops the updater's background compactor.
func (s *Shard) Close() { s.up.Close() }

// GlobalID maps a local row to its global point id through the current
// piecewise scheme.
func (s *Shard) GlobalID(local int32) int32 {
	return s.scheme.Load().global(local)
}

func (s *Shard) handleCuboid(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodGet) {
		return
	}
	// A warm subspace's fan-out is a map probe and a byte copy in the
	// embedded server's cache, not an extraction plus an encode.
	cache, cm := s.srv.Cache()
	rec := obs.RecordFrom(r.Context())
	if e, ok := cache.Get(rcache.Key{Epoch: s.up.Current().Epoch(), Path: r.URL.Path, Variant: r.URL.RawQuery}); ok {
		rec.Event(obs.Event{Kind: obs.EvCache, Detail: "hit", Start: rec.Since()})
		rcache.Serve(w, r, e, cm)
		return
	}
	rec.Event(obs.Event{Kind: obs.EvCache, Detail: "miss", Start: rec.Since()})
	delta, ok := s.parseSubspace(w, r)
	if !ok {
		return
	}

	// Key and fill under the snapshot's epoch — the epoch echoed in the
	// body — so a fan-out racing a flush can never receive bytes whose
	// payload disagrees with their validator. The singleflight gate means R
	// replicas' worth of concurrent cold fan-outs cost one extraction here.
	snap := s.up.Current()
	e, err := cache.Fill(rcache.Key{Epoch: snap.Epoch(), Path: r.URL.Path, Variant: r.URL.RawQuery},
		func() (*rcache.Entry, error) {
			extractStart := rec.Since()
			local := snap.Skyline(delta)
			rec.Event(obs.Event{Kind: obs.EvCuboid, Start: extractStart,
				Dur: rec.Since() - extractStart, N: int64(len(local)), Epoch: snap.Epoch()})
			ids := make([]int32, len(local))
			for i, row := range local {
				ids[i] = s.GlobalID(row)
			}
			body := encodeCuboidFrame(delta, snap.Epoch(), ids,
				func(i int) []float32 { return snap.Point(local[i]) })
			tag := fmt.Sprintf(`"e%d-s%d"`, snap.Epoch(), uint32(delta))
			return rcache.NewBinaryEntry(tag, body), nil
		})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rcache.Serve(w, r, e, cm)
}

// parseSubspace reads the subspace parameter of /shard/cuboid, answering 400
// itself when it is missing or out of range, or when the query carries any
// other parameter: a request for something the shard does not serve — S⁺_δ by
// extended=true, say — must fail, not be answered with S_δ.
func (s *Shard) parseSubspace(w http.ResponseWriter, r *http.Request) (mask.Mask, bool) {
	q := r.URL.Query()
	for name := range q {
		if name != "subspace" {
			http.Error(w, fmt.Sprintf("unknown parameter %q", name), http.StatusBadRequest)
			return 0, false
		}
	}
	spec := q.Get("subspace")
	v, err := strconv.ParseUint(spec, 10, 32)
	if err != nil || v == 0 || v >= 1<<uint(s.dims) {
		http.Error(w, fmt.Sprintf("bad subspace %q (need 1..%d)", spec, 1<<uint(s.dims)-1),
			http.StatusBadRequest)
		return 0, false
	}
	return mask.Mask(v), true
}

// shardInfo is the /shard/info payload: the node's state. IDSegments is
// its piecewise id scheme; epoch is what anti-entropy and the coordinator's
// replica checks compare; the durable frontier (wal_seq, snapshot_seq,
// replayed, records) is present only on durable shards.
type shardInfo struct {
	Dims        int         `json:"dims"`
	Live        int         `json:"live"`
	Epoch       uint64      `json:"epoch"`
	IDSegments  []IDSegment `json:"id_segments"`
	MapGen      uint64      `json:"map_gen"`
	WALSeq      uint64      `json:"wal_seq,omitempty"`
	SnapshotSeq uint64      `json:"snapshot_seq,omitempty"`
	Replayed    int         `json:"replayed,omitempty"`
	Records     uint64      `json:"records,omitempty"`
}

func (s *Shard) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed (use GET)", http.StatusMethodNotAllowed)
		return
	}
	snap := s.up.Current()
	info := shardInfo{
		Dims:       s.dims,
		Live:       snap.Live(),
		Epoch:      snap.Epoch(),
		IDSegments: s.scheme.Load().segments(),
		MapGen:     s.maxGen.Load(),
	}
	if st := s.up.Store(); st != nil {
		info.WALSeq = st.Seq()
		info.SnapshotSeq = st.SnapshotSeq()
		info.Replayed = s.up.Replayed()
		info.Records = st.Records()
	}
	server.WriteJSON(w, info)
}
