package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"skycube"
	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
	"skycube/internal/server"
	"skycube/internal/skyline"
	"skycube/internal/stree"
	"skycube/internal/templates"
)

// probeSample bounds how many points of S⁺ the dominance probes query.
const probeSample = 512

// layerProbes measures single layers directly, after the stages, on the
// traced run: the numbers that say which layer a change moved.
func layerProbes(fx *fixture, cfg config, t *tally, m metricSet) error {
	domProbes(fx, t, m)
	skylineProbes(fx, m)
	instrumentedMDMC(fx.mdmc, m)
	if err := deviceProbes(fx, m); err != nil {
		return err
	}
	if err := serverProbes(fx, t, m); err != nil {
		return err
	}
	return coldGatherProbes(fx, t, m)
}

// domProbes asks, for a sample of the dataset's own extended skyline S⁺,
// whether any point of S⁺ dominates the query: once with the block kernel
// over sum-sorted SoA blocks, once with a scalar scan. Then it times the
// block refine kernel's sweep over the MDMC tree's columns.
func domProbes(fx *fixture, t *tally, m metricSet) {
	ds, ext, d := fx.raw, fx.mdmc.ExtRows, fx.raw.Dims
	full, dims := mask.Full(d), mask.Dims(mask.Full(d))
	step := max(len(ext)/probeSample, 1)
	var sample []int32
	for i := 0; i < len(ext); i += step {
		sample = append(sample, ext[i])
	}

	blocks := data.SortedBlocksOf(ds, ext, dims, data.DefaultBlockSize)
	defer data.PutBlockSet(blocks)
	var tally dom.KernelTally
	byBlocks := make([]bool, len(sample))
	start := time.Now()
	for i, r := range sample {
		p := ds.Point(int(r))
		byBlocks[i] = dom.BlocksAnyDominator(blocks, p, data.SumOver(p, dims), false, true, &tally)
	}
	m.add("dom.block_probe_ns", float64(time.Since(start).Nanoseconds())/float64(len(sample)))

	disagree := 0
	start = time.Now()
	for i, r := range sample {
		p, found := ds.Point(int(r)), false
		for _, q := range ext {
			if dom.DominatesIn(ds.Point(int(q)), p, full) {
				found = true
				break
			}
		}
		if found != byBlocks[i] {
			disagree++
		}
	}
	m.add("dom.scalar_probe_ns", float64(time.Since(start).Nanoseconds())/float64(len(sample)))
	t.check(disagree == 0, "block and scalar dominance probes disagree on %d of %d points", disagree, len(sample))

	tree := fx.mdmc.Tree
	var rel [64]dom.Rel
	rows := 0
	start = time.Now()
	for i := 0; i < tree.Data.N; i += step {
		p := tree.Data.Point(i)
		for lo := 0; lo < tree.Data.N; lo += len(rel) {
			hi := min(lo+len(rel), tree.Data.N)
			dom.CompareBlock(tree.Cols, lo, hi, p, rel[:])
			rows += hi - lo
		}
	}
	m.add("dom.compare_block_ns_per_row", float64(time.Since(start).Nanoseconds())/float64(rows))
}

// skylineProbes times the full-space extended skyline with the two
// algorithms the builds use, and the static tree over it.
func skylineProbes(fx *fixture, m metricSet) {
	full := mask.Full(fx.raw.Dims)
	var ext []int32
	start := time.Now()
	ext = skyline.ExtendedSkyline(fx.raw, nil, full, skyline.AlgoHybrid, threads)
	m.add("skyline.extended_full_hybrid_s", time.Since(start).Seconds())
	start = time.Now()
	skyline.ExtendedSkyline(fx.raw, nil, full, skyline.AlgoBSkyTree, 1)
	m.add("skyline.extended_full_bskytree_s", time.Since(start).Seconds())

	rows := make([]int, len(ext))
	for i, r := range ext {
		rows[i] = int(r)
	}
	sub := fx.raw.Subset(rows)
	start = time.Now()
	stree.Build(sub, 3)
	m.add("stree.build_s", time.Since(start).Seconds())
}

// instrumentedMDMC repeats the MDMC point tasks on one thread through the
// accounting hooks, for exact counts of dominance tests and skipped leaves.
func instrumentedMDMC(ctx *templates.MDMCContext, m metricSet) {
	sol := templates.NewSolution(ctx)
	var dts, leaves, skipped int
	onLeaf := func(skip bool) {
		leaves++
		if skip {
			skipped++
		}
	}
	onDT := func() { dts++ }
	for p := 0; p < ctx.NumTasks(); p++ {
		sol.Reset()
		sol.Filter(p, 2)
		sol.RefineInstrumented(p, true, onLeaf, onDT)
	}
	m.add("templates.mdmc_dts", float64(dts))
	m.add("templates.mdmc_leaf_skip_frac", float64(skipped)/float64(max(leaves, 1)))
}

// deviceProbes runs MDMC across the CPU and three modelled cards, and on one
// modelled GTX 980 alone, whose cost model repeats exactly.
func deviceProbes(fx *fixture, m metricSet) error {
	_, stats, err := skycube.Build(fx.ds, skycube.Options{Threads: threads, CPUAlso: true,
		GPUs: []skycube.GPUModel{skycube.GTX980, skycube.GTX980, skycube.GTXTitan}})
	if err != nil {
		return fmt.Errorf("cross-device build: %w", err)
	}
	gpuShare := 0.0
	for _, s := range stats.Shares {
		if !strings.HasPrefix(s.Name, "CPU") { // the CPU is two socket devices, CPU0 and CPU1
			gpuShare += s.Fraction
		}
	}
	m.add("hetero.mdmc_all_s", stats.Elapsed.Seconds())
	m.add("hetero.steals", float64(stats.Sched.Steals))
	m.add("hetero.gpu_share_frac", gpuShare)

	reg := skycube.NewMetrics()
	_, stats, err = skycube.Build(fx.ds, skycube.Options{Threads: threads, Metrics: reg,
		GPUs: []skycube.GPUModel{skycube.GTX980}})
	if err != nil {
		return fmt.Errorf("single-GPU build: %w", err)
	}
	m.add("gpusim.mdmc_model_s", stats.GPUModelSeconds[0])
	m.add("gpusim.transactions", counter(reg, "skycube_gpu_transactions_total", "device", "GTX980"))
	return nil
}

// discard is a response writer that keeps only the status.
type discard struct {
	h      http.Header
	status int
}

func (w *discard) Header() http.Header         { return w.h }
func (w *discard) Write(b []byte) (int, error) { return len(b), nil }
func (w *discard) WriteHeader(status int)      { w.status = status }

// serveMicros is the median time of one direct ServeHTTP per path.
func serveMicros(h http.Handler, paths []string, t *tally) float64 {
	var us []float64
	for _, p := range paths {
		req := httptest.NewRequest(http.MethodGet, p, nil)
		w := &discard{h: http.Header{}, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(w, req)
		us = append(us, micros(time.Since(start)))
		t.check(w.status == http.StatusOK, "GET %s: status %d", p, w.status)
	}
	return median(us)
}

// serverProbes times a single node's read path over the cluster's points with
// no network: a reply served from its response cache against one computed and
// encoded anew.
func serverProbes(fx *fixture, t *tally, m metricSet) error {
	c, _, err := skycube.Build(fx.srvDS, skycube.Options{Threads: threads})
	if err != nil {
		return err
	}
	var paths []string
	for _, delta := range skycube.AllSubspaces(fx.srvRaw.Dims) {
		paths = append(paths, skylinePath(delta))
	}
	cached := server.NewWith(c, fx.srvDS, server.Options{})
	serveMicros(cached, paths, t) // fill
	m.add("server.hot_us", serveMicros(cached, paths, t))
	m.add("server.cold_us", serveMicros(server.NewWith(c, fx.srvDS, server.Options{DisableCache: true}), paths, t))
	return nil
}

// coldGatherRepeats is how many full-space queries each cold-gather probe times.
const coldGatherRepeats = 5

// coldGatherProbes times a full scatter-gather-merge of the full space on
// coordinators that memoize nothing, with the plain and the region-pruned
// gather, and checks that both give the same bytes.
func coldGatherProbes(fx *fixture, t *tally, m metricSet) error {
	path := skylinePath(skycube.FullSpace(fx.srvRaw.Dims))
	bodies := map[bool][]byte{}
	for _, prune := range []bool{false, true} {
		coord, err := fx.cluster.coordinator(clusterOptions{disableCache: true, prune: prune})
		if err != nil {
			return err
		}
		var ms []float64
		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		for i := 0; i < coldGatherRepeats; i++ {
			rec := httptest.NewRecorder()
			start := time.Now()
			coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			ms = append(ms, millis(time.Since(start)))
			t.check(rec.Code == http.StatusOK, "cold GET %s (prune=%v): status %d", path, prune, rec.Code)
			bodies[prune] = rec.Body.Bytes()
		}
		runtime.ReadMemStats(&mem1)
		if prune {
			m.add("cluster.cold_gather_pruned_ms", median(ms))
		} else {
			m.add("cluster.cold_gather_ms", median(ms))
			m.add("cluster.allocs_per_cold_query", float64(mem1.Mallocs-mem0.Mallocs)/coldGatherRepeats)
		}
	}
	t.check(bytes.Equal(bodies[false], bodies[true]), "pruned and plain gathers answer %s differently", path)
	return nil
}
