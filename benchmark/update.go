package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"skycube"
	"skycube/internal/delta"
	"skycube/internal/gen"
	"skycube/internal/obs"
	"skycube/internal/wal"
)

// counter reads one of the program's own counters (0 on the untraced run,
// which has no registry).
func counter(reg *skycube.Metrics, name string, labels ...string) float64 {
	if reg == nil {
		return 0
	}
	return reg.CounterM(name, "", labels...).Value()
}

// updateStage drives the durable updater: phase A inserts in batches of 100,
// an explicit checkpoint, phase B inserts in batches of 1 000, phase C deletes
// seeded live ids in batches of 25 (see pickVictims) — each batch followed by Flush, which is
// the acknowledgement, and by a synchronous Compact once the overlay reaches a
// quarter of the base. Then the power is cut and the directory reopened: the
// tail replayed is phases B and C. Outside the timed regions the recovered
// state is checked against the benchmark's own record of what was
// acknowledged and against a one-shot QSkycube build over the survivors.
func updateStage(fx *fixture, cfg config, tr *tracer, t *tally, m metricSet) (stageSpan, error) {
	w, d := cfg.w, cfg.w.update.d
	up, reg := fx.updater, fx.metrics
	inserts := w.batches100*100 + w.batches1000*1000
	pool := gen.Synthetic(w.update.dist, inserts, d, subSeed(cfg.dataSeed, insertInput)) // the points to insert

	// The benchmark's own record of the acknowledged state.
	points := make(map[int32][]float32, inserts)          // acknowledged inserts
	live := make([]int32, w.update.n, w.update.n+inserts) // ids a delete may pick
	for i := range live {
		live[i] = int32(i)
	}
	var deleted []int32

	root := tr.begin("benchmark", "update_stage", -1, 0)
	start := time.Now()
	op := 0
	var flushes []time.Duration
	var compactTime time.Duration
	compactions := 0
	flush := func() time.Duration {
		d := tr.do("delta", "flush", root, op, func() { up.Flush() })
		flushes = append(flushes, d)
		if st := up.Stats(); st.Overlay*4 >= st.BasePoints {
			compactTime += tr.do("delta", "compact", root, op, func() { up.Compact() })
			compactions++
		}
		return d
	}
	next := 0
	insertBatches := func(batches, size int) (wall time.Duration, flushMs []float64) {
		begin := time.Now()
		for b := 0; b < batches; b++ {
			op++
			batch := make([]int32, 0, size)
			for i := 0; i < size; i++ {
				p := pool.Point(next)
				next++
				var id int32
				var ierr error
				tr.do("delta", "insert", root, op, func() { id, ierr = up.Insert(p) })
				t.check(ierr == nil, "insert: %v", ierr)
				if ierr == nil {
					points[id] = p
					batch = append(batch, id)
				}
			}
			flushMs = append(flushMs, millis(flush()))
			live = append(live, batch...) // acknowledged: the flush committed the epoch marker
		}
		return time.Since(begin), flushMs
	}

	f0, b0, s0 := counter(reg, "skycube_wal_fsyncs_total"), counter(reg, "skycube_wal_appended_bytes_total"), fsyncSeconds(reg)
	wallA, flushA := insertBatches(w.batches100, 100)
	var ckErr error
	checkpoint := tr.do("wal", "checkpoint", root, op, func() { ckErr = up.Store().Checkpoint(up.Delta()) })
	if ckErr != nil {
		return stageSpan{}, fmt.Errorf("checkpoint: %w", ckErr)
	}
	a0 := totalAllocIf(tr)
	wallB, flushB := insertBatches(w.batches1000, 1000)
	flushAllocB := totalAllocIf(tr) - a0
	walBytes := counter(reg, "skycube_wal_appended_bytes_total") - b0

	// A point's place in the workload's own order: the base points', then
	// the inserted ones' (ids follow the base in the order of insertion).
	place := func(id int32) int32 {
		if int(id) < w.update.n {
			return fx.updCorpus[id]
		}
		return id
	}
	victims := pickVictims(rand.New(rand.NewSource(subSeed(cfg.dataSeed, victimInput))),
		up.Current().Skyline(skycube.FullSpace(d)), &live, place, w.batches25)

	beginC := time.Now()
	deletes := 0
	for _, batch := range victims {
		op++
		for _, id := range batch {
			var derr error
			tr.do("delta", "delete", root, op, func() { derr = up.Delete(id) })
			t.check(derr == nil, "delete %d: %v", id, derr)
			if derr == nil {
				deleted = append(deleted, id)
				deletes++
			}
		}
		flush()
	}
	wallC := time.Since(beginC)

	before := up.Current()
	stats := up.Stats()
	if err := up.Store().CrashForTest(); err != nil {
		return stageSpan{}, fmt.Errorf("power cut: %w", err)
	}
	up.Close()
	fx.updater = nil

	op++
	var openTime, replayTime time.Duration
	rec := tr.begin("benchmark", "recovery", root, op)
	beginR := time.Now()
	var err error
	if tr == nil {
		up, err = skycube.OpenUpdater(durableOptions(fx.walDir, nil))
	} else {
		up, openTime, replayTime, err = tracedRecovery(fx.walDir, reg, tr, rec, op)
	}
	recovery := time.Since(beginR)
	tr.end(rec)
	wall := time.Since(start)
	tr.end(root)
	if err != nil {
		return stageSpan{}, fmt.Errorf("recovery: %w", err)
	}
	fx.updater = up

	// Output checks.
	after := up.Current()
	t.check(after.Epoch() == before.Epoch(), "recovered epoch %d, want %d", after.Epoch(), before.Epoch())
	t.check(after.Live() == before.Live() && after.Live() == len(live),
		"recovered %d live points, had %d, acknowledged %d", after.Live(), before.Live(), len(live))
	gone := make(map[int32]bool, len(deleted))
	for _, id := range deleted {
		gone[id] = true
		t.check(!after.Alive(id), "acknowledged delete of %d lost", id)
	}
	for id, p := range points {
		if !gone[id] {
			t.check(after.Alive(id) && slices.Equal(after.Point(id), p), "acknowledged insert %d lost", id)
		}
	}
	wrong, err := wrongAgainstOneShot(after, live, func(id int32) []float32 {
		if p, ok := points[id]; ok {
			return p
		}
		return fx.updRaw.Point(int(id))
	}, d)
	if err != nil {
		return stageSpan{}, err
	}
	t.check(wrong == 0, "recovered skylines differ from a one-shot QSkycube build on %d subspaces", wrong)

	if tr == nil {
		m.add("insert_per_s", float64(inserts)/(wallA+wallB).Seconds())
		m.add("delete_per_s", float64(deletes)/wallC.Seconds())
		m.add("recovery_s", recovery.Seconds())
	} else {
		m.add("delta.insert_per_s_b100", float64(w.batches100*100)/wallA.Seconds())
		m.add("delta.insert_per_s_b1000", float64(w.batches1000*1000)/wallB.Seconds())
		m.add("delta.flush_b100_ms", median(flushA))
		m.add("delta.flush_b1000_ms", median(flushB))
		m.add("delta.flush_max_ms", millis(slices.Max(flushes)))
		m.add("delta.flush_alloc_mb_b1000", mb(flushAllocB)/float64(w.batches1000))
		m.add("delta.delete_ms", millis(wallC)/float64(deletes))
		m.add("delta.recomputed_cuboids", counter(reg, "skycube_delta_recomputed_cuboids_total"))
		m.add("delta.compact_s", compactTime.Seconds())
		m.add("delta.compactions", float64(compactions))
		m.add("delta.overlay_end", float64(stats.Overlay))
		fsyncs := counter(reg, "skycube_wal_fsyncs_total") - f0
		m.add("wal.bytes_per_insert", walBytes/float64(inserts))
		m.add("wal.fsyncs", fsyncs)
		m.add("wal.commit_us", (fsyncSeconds(reg)-s0)*1e6/fsyncs)
		m.add("wal.checkpoint_s", checkpoint.Seconds())
		m.add("wal.snapshot_bytes", reg.GaugeM("skycube_wal_snapshot_bytes", "").Value())
		m.add("wal.open_s", openTime.Seconds())
		m.add("wal.replay_s", replayTime.Seconds())
		m.add("wal.replayed_records", float64(up.Replayed()))
	}
	return stageSpan{name: "update", roots: tr.roots(root), wall: wall, parallel: 1}, nil
}

// pickVictims takes the batches of 25 ids to delete out of live: in each, 5
// members of the full-space skyline and 20 drawn from all live ids. A delete
// costs by the cuboids its victim is a skyline member of — nothing for most
// points, a recompute per cuboid for a member — so a batch drawn from all ids
// alone would cost by how many members it happened to hit. The draw is over
// the points in the workload's own order (place), so every seed deletes the
// same points, under the ids its row order gives them.
func pickVictims(rng *rand.Rand, skyline []int32, live *[]int32, place func(id int32) int32, batches int) [][]int32 {
	byPlace := func(a, b int32) int { return int(place(a) - place(b)) }
	members, others := slices.Clone(skyline), slices.Clone(*live)
	for _, ids := range [][]int32{members, others} {
		slices.SortFunc(ids, byPlace)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	taken := map[int32]bool{}
	take := func(from *[]int32, batch []int32, upTo int) []int32 {
		for len(batch) < upTo && len(*from) > 0 {
			id := (*from)[0]
			*from = (*from)[1:]
			if !taken[id] {
				taken[id] = true
				batch = append(batch, id)
			}
		}
		return batch
	}
	out := make([][]int32, batches)
	for b := range out {
		out[b] = take(&others, take(&members, nil, 5), 25)
	}
	*live = slices.DeleteFunc(*live, func(id int32) bool { return taken[id] })
	return out
}

func fsyncSeconds(reg *skycube.Metrics) float64 {
	if reg == nil {
		return 0
	}
	return reg.HistogramM("skycube_wal_fsync_seconds", "", nil).Sum()
}

// totalAllocIf reads the allocation counter on the traced run only: reading
// it stops the world.
func totalAllocIf(tr *tracer) uint64 {
	if tr == nil {
		return 0
	}
	return totalAlloc()
}

// tracedRecovery is what skycube.OpenUpdater does, with a span around each
// layer's part: open the log, rebuild at the checkpoint, replay the tail.
func tracedRecovery(dir string, reg *skycube.Metrics, tr *tracer, parent, op int) (up *skycube.Updater, open, replay time.Duration, err error) {
	opt := durableOptions(dir, reg)
	var store *wal.Store
	var rec *wal.Recovered
	open = tr.do("wal", "open", parent, op, func() {
		store, rec, err = wal.Open(wal.Options{Dir: dir, Fsync: opt.Durable.Fsync,
			CheckpointEvery: opt.Durable.CheckpointEvery, Metrics: obs.NewWALMetrics(reg)})
	})
	if err != nil {
		return nil, 0, 0, err
	}
	if rec == nil {
		store.Close()
		return nil, 0, 0, fmt.Errorf("%s: nothing to recover", dir)
	}
	var du *delta.Updater
	tr.do("delta", "restore", parent, op, func() {
		du, err = delta.NewUpdaterFrom(rec.State, delta.Options{Threads: threads, Metrics: obs.NewDeltaMetrics(reg)})
	})
	if err != nil {
		store.Close()
		return nil, 0, 0, err
	}
	replayed := 0
	replay = tr.do("wal", "replay", parent, op, func() { replayed, err = store.Replay(du) })
	if err != nil {
		du.Close()
		store.Close()
		return nil, 0, 0, err
	}
	du.AttachJournal(store)
	store.AttachUpdater(du)
	return skycube.AdoptUpdater(du, store, replayed), open, replay, nil
}

// idCube answers with the ids of a cube built over a subset of the points.
type idCube struct {
	c   cube
	ids []int32 // row of the subset -> id
}

func (m idCube) Skyline(delta skycube.Subspace) []int32 {
	rows := m.c.Skyline(delta)
	out := make([]int32, len(rows))
	for i, r := range rows {
		out[i] = m.ids[r]
	}
	return out
}

// wrongAgainstOneShot builds the skycube of the surviving points in one shot
// with QSkycube and counts the subspaces on which got disagrees with it.
func wrongAgainstOneShot(got cube, survivors []int32, point func(id int32) []float32, d int) (int, error) {
	ids := slices.Clone(survivors)
	slices.Sort(ids)
	vals := make([]float32, 0, len(ids)*d)
	for _, id := range ids {
		vals = append(vals, point(id)...)
	}
	ds, err := skycube.NewDataset(d, vals)
	if err != nil {
		return 0, fmt.Errorf("oracle dataset: %w", err)
	}
	oracle, _, err := skycube.Build(ds, skycube.Options{Algorithm: skycube.QSkycube})
	if err != nil {
		return 0, fmt.Errorf("oracle build: %w", err)
	}
	return wrongSubspaces(got, idCube{oracle, ids}, d), nil
}
