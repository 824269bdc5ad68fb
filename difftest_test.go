// Cross-algorithm differential test harness: every algorithm path — the
// QSkycube oracle, PQSkycube, STSC, SDSC and MDMC, including the
// cross-device builds on the common task queue — must
// materialise exactly the same skycube, cuboid by cuboid, on every
// distribution and dimensionality in the grid.
package skycube_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"skycube"
	"skycube/internal/data"
	"skycube/internal/skyline"
)

// diffCase is one algorithm path of the differential grid.
type diffCase struct {
	name string
	opt  skycube.Options
}

// diffPaths returns every build path under test, the cross-device SDSC
// and MDMC builds included.
func diffPaths(threads int) []diffCase {
	hetero := []skycube.GPUModel{skycube.GTX980, skycube.GTXTitan}
	return []diffCase{
		{"PQSkycube", skycube.Options{Algorithm: skycube.PQSkycube, Threads: threads}},
		{"STSC", skycube.Options{Algorithm: skycube.STSC, Threads: threads}},
		{"SDSC", skycube.Options{Algorithm: skycube.SDSC, Threads: threads}},
		{"MDMC", skycube.Options{Algorithm: skycube.MDMC, Threads: threads}},
		{"SDSC-hetero", skycube.Options{Algorithm: skycube.SDSC, Threads: threads,
			GPUs: hetero, CPUAlso: true}},
		{"MDMC-hetero", skycube.Options{Algorithm: skycube.MDMC, Threads: threads,
			GPUs: hetero, CPUAlso: true}},
	}
}

func TestDifferentialAllAlgorithms(t *testing.T) {
	dists := []struct {
		name string
		dist skycube.Distribution
	}{
		{"correlated", skycube.Correlated},
		{"independent", skycube.Independent},
		{"anticorrelated", skycube.Anticorrelated},
	}
	for _, dc := range dists {
		for d := 2; d <= 6; d++ {
			n := 2000
			if dc.dist == skycube.Anticorrelated && d >= 5 {
				// The anticorrelated extended skylines explode with d; keep
				// the oracle affordable.
				n = 800
			}
			name := fmt.Sprintf("%s/d=%d/n=%d", dc.name, d, n)
			t.Run(name, func(t *testing.T) {
				ds := skycube.GenerateSynthetic(dc.dist, n, d, int64(31*d)+7)
				oracle, _, err := skycube.Build(ds, skycube.Options{
					Algorithm: skycube.QSkycube, Threads: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range diffPaths(4) {
					cube, stats, err := skycube.Build(ds, c.opt)
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					for _, delta := range skycube.AllSubspaces(d) {
						want := oracle.Skyline(delta)
						got := cube.Skyline(delta)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: cuboid δ=%0*b has %d skyline points, oracle has %d\n got %v\nwant %v",
								c.name, d, delta, len(got), len(want), got, want)
						}
					}
					// Cross-device paths must also keep the Shares accounting
					// consistent: fractions covering all the work.
					if len(stats.Shares) > 0 {
						sum := 0.0
						for _, sh := range stats.Shares {
							sum += sh.Fraction
						}
						if sum < 0.9999 || sum > 1.0001 {
							t.Errorf("%s: device share fractions sum to %v", c.name, sum)
						}
					}
				}
			})
		}
	}
}

// TestDifferentialPreFilter runs the grid's comparison on inputs of 40 000
// points, above the 32 768 rows from which the Hybrid engine first drops what
// its 64 lowest-sum rows strictly dominate: the full-space cuboid of STSC and
// SDSC, and MDMC's S⁺ prologue. The grid above stops at 2 000 points, where
// no cuboid is filtered.
func TestDifferentialPreFilter(t *testing.T) {
	for _, c := range []struct {
		name string
		dist skycube.Distribution
		d    int
	}{
		{"anticorrelated/d=4", skycube.Anticorrelated, 4},
		{"independent/d=5", skycube.Independent, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			ds := skycube.GenerateSynthetic(c.dist, 40_000, c.d, int64(17*c.d)+1)
			oracle, _, err := skycube.Build(ds, skycube.Options{Algorithm: skycube.QSkycube, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range []skycube.Algorithm{skycube.STSC, skycube.SDSC, skycube.MDMC} {
				cube, _, err := skycube.Build(ds, skycube.Options{Algorithm: algo, Threads: 2})
				if err != nil {
					t.Fatalf("%v: %v", algo, err)
				}
				for _, delta := range skycube.AllSubspaces(c.d) {
					if got, want := cube.Skyline(delta), oracle.Skyline(delta); !reflect.DeepEqual(got, want) {
						t.Fatalf("%v: cuboid δ=%0*b has %d skyline points, oracle has %d", algo, c.d, delta, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestDifferentialKernelAblation is the oracle matrix read as a kernel
// ablation — block kernels against none — with nothing to switch, because
// the two sides differ by construction. QSkycube (the oracle) and PQSkycube
// never sweep a block: their BSkyTree recursion ends in the BNL window filter,
// which compares rows and has no block path, and that is what keeps the
// oracle independent of the kernels it judges; the test asserts it on
// KernelStats. SDSC and MDMC do run the block kernels and must materialise
// byte-identical cuboids. And no build's scan ends at a stop point: a window
// filter probes only lanes appended before the probe (the cluster's merge
// test asserts the opposite for the shape where stop points do fire).
func TestDifferentialKernelAblation(t *testing.T) {
	dists := []struct {
		name string
		dist skycube.Distribution
	}{
		{"correlated", skycube.Correlated},
		{"independent", skycube.Independent},
		{"anticorrelated", skycube.Anticorrelated},
	}
	// SDSC covers the hybrid/BNL filters, MDMC the label sweeps of its tree walks.
	paths := []struct {
		diffCase
		blocks bool
	}{
		{diffCase{"PQSkycube", skycube.Options{Algorithm: skycube.PQSkycube, Threads: 4}}, false},
		{diffCase{"SDSC", skycube.Options{Algorithm: skycube.SDSC, Threads: 4}}, true},
		{diffCase{"MDMC", skycube.Options{Algorithm: skycube.MDMC, Threads: 4}}, true},
	}
	var blockSweeps uint64
	for _, dc := range dists {
		for d := 2; d <= 6; d++ {
			n := 2000
			if dc.dist == skycube.Anticorrelated && d >= 5 {
				n = 800
			}
			t.Run(fmt.Sprintf("%s/d=%d", dc.name, d), func(t *testing.T) {
				ds := skycube.GenerateSynthetic(dc.dist, n, d, int64(53*d)+3)
				before := skycube.KernelStats()
				oracle, _, err := skycube.Build(ds, skycube.Options{
					Algorithm: skycube.QSkycube, Threads: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if after := skycube.KernelStats(); after.BlockSweeps != before.BlockSweeps {
					t.Fatalf("the QSkycube oracle ran %d block sweeps", after.BlockSweeps-before.BlockSweeps)
				}
				for _, c := range paths {
					before := skycube.KernelStats()
					cube, _, err := skycube.Build(ds, c.opt)
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					after := skycube.KernelStats()
					if !c.blocks && after.BlockSweeps != before.BlockSweeps {
						t.Fatalf("%s ran %d block sweeps", c.name, after.BlockSweeps-before.BlockSweeps)
					}
					if after.StopPointExits != before.StopPointExits {
						t.Fatalf("%s: %d scans of a build ended at a stop point", c.name, after.StopPointExits-before.StopPointExits)
					}
					blockSweeps += after.BlockSweeps - before.BlockSweeps
					for _, delta := range skycube.AllSubspaces(d) {
						want := oracle.Skyline(delta)
						got := cube.Skyline(delta)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: cuboid δ=%0*b has %d skyline points, oracle has %d\n got %v\nwant %v",
								c.name, d, delta, len(got), len(want), got, want)
						}
					}
				}
			})
		}
	}
	if blockSweeps == 0 {
		t.Fatal("no SDSC or MDMC build swept a block: the matrix compared scalar with scalar")
	}
}

// TestDifferentialIncremental checks the maintenance path against the
// one-shot oracle: build an updater over a prefix of the dataset, insert
// the remaining tail and delete a random sample in two batches, then
// compare every cuboid and every live membership of the flushed (and then
// compacted) snapshot with a from-scratch QSkycube build over the final
// point set. Inserted ids continue the row sequence, so the live id set
// indexes the generated dataset directly.
func TestDifferentialIncremental(t *testing.T) {
	dists := []struct {
		name string
		dist skycube.Distribution
	}{
		{"correlated", skycube.Correlated},
		{"independent", skycube.Independent},
		{"anticorrelated", skycube.Anticorrelated},
	}
	for _, dc := range dists {
		for d := 2; d <= 6; d++ {
			n, tail, deletes := 500, 120, 150
			if dc.dist == skycube.Anticorrelated && d >= 5 {
				// Anticorrelated extended skylines explode with d; keep the
				// per-insert refinement and the oracle affordable.
				n, tail, deletes = 250, 60, 80
			}
			name := fmt.Sprintf("%s/d=%d/n=%d", dc.name, d, n)
			t.Run(name, func(t *testing.T) {
				seed := int64(97*d) + int64(len(dc.name))
				full := skycube.GenerateSynthetic(dc.dist, n+tail, d, seed)
				baseRows := make([][]float32, n)
				for i := range baseRows {
					baseRows[i] = full.Point(i)
				}
				base, err := skycube.DatasetFromRows(baseRows)
				if err != nil {
					t.Fatal(err)
				}
				up, err := skycube.NewUpdater(base, skycube.Options{Threads: 4})
				if err != nil {
					t.Fatal(err)
				}
				defer up.Close()

				live := make([]int32, n)
				for i := range live {
					live[i] = int32(i)
				}
				rng := rand.New(rand.NewSource(seed + 1))
				for batch := 0; batch < 2; batch++ {
					lo, hi := batch*tail/2, (batch+1)*tail/2
					for i := lo; i < hi; i++ {
						id, err := up.Insert(full.Point(n + i))
						if err != nil {
							t.Fatal(err)
						}
						if id != int32(n+i) {
							t.Fatalf("insert %d assigned id %d", n+i, id)
						}
						live = append(live, id)
					}
					for k := 0; k < deletes/2 && len(live) > 1; k++ {
						idx := rng.Intn(len(live))
						if err := up.Delete(live[idx]); err != nil {
							t.Fatal(err)
						}
						live = append(live[:idx], live[idx+1:]...)
					}
					checkAgainstFreshBuild(t, up.Flush(), live)
				}
				checkAgainstFreshBuild(t, up.Compact(), live)
			})
		}
	}
}

// TestDifferentialPartitionMerge checks the cluster tier's foundational
// identity through the public API alone: for every partition mode, splitting
// a dataset, building each part independently, and re-filtering the union of
// the local cuboids yields exactly the full build's skycube, cuboid by
// cuboid. The positional mode (angular) renumbers points by
// concatenation order, so their oracle is a rebuild over the concatenated
// rows; round-robin keeps the arithmetic id mapping s + r·k.
func TestDifferentialPartitionMerge(t *testing.T) {
	modes := []struct {
		name string
		mode skycube.PartitionMode
	}{
		{"roundrobin", skycube.RoundRobinPartition},
		{"angular", skycube.AngularPartition},
	}
	dominates := func(p, q []float32, delta skycube.Subspace) bool {
		strict := false
		for j := 0; j < len(p); j++ {
			if delta&(1<<uint(j)) == 0 {
				continue
			}
			if p[j] > q[j] {
				return false
			}
			if p[j] < q[j] {
				strict = true
			}
		}
		return strict
	}
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 1200, 4, 59)
	d := ds.Dims()
	for _, mc := range modes {
		for _, k := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/k=%d", mc.name, k), func(t *testing.T) {
				parts, err := ds.Partition(k, mc.mode)
				if err != nil {
					t.Fatal(err)
				}
				total := 0
				for _, p := range parts {
					total += p.Len()
				}
				if total != ds.Len() {
					t.Fatalf("partition sizes sum to %d, dataset has %d rows", total, ds.Len())
				}
				// The oracle dataset in the id space the merge produces.
				oracleDS := ds
				if mc.mode.Positional() {
					var rows [][]float32
					for _, p := range parts {
						for r := 0; r < p.Len(); r++ {
							rows = append(rows, p.Point(r))
						}
					}
					if oracleDS, err = skycube.DatasetFromRows(rows); err != nil {
						t.Fatal(err)
					}
				}
				oracle, _, err := skycube.Build(oracleDS, skycube.Options{
					Algorithm: skycube.QSkycube, Threads: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				type local struct {
					cube skycube.Skycube
					base int
				}
				locals := make([]local, len(parts))
				base := 0
				for s, p := range parts {
					cube, _, err := skycube.Build(p, skycube.Options{Threads: 2})
					if err != nil {
						t.Fatal(err)
					}
					locals[s] = local{cube: cube, base: base}
					base += p.Len()
				}
				for _, delta := range skycube.AllSubspaces(d) {
					// Gather local cuboid members under global ids, then
					// re-filter the union: the distributed merge in miniature.
					var cands []int32
					for s, lc := range locals {
						for _, r := range lc.cube.Skyline(delta) {
							if mc.mode.Positional() {
								cands = append(cands, int32(lc.base)+r)
							} else {
								cands = append(cands, int32(s)+r*int32(k))
							}
						}
					}
					var got []int32
					for _, id := range cands {
						p := oracleDS.Point(int(id))
						dead := false
						for _, other := range cands {
							if other != id && dominates(oracleDS.Point(int(other)), p, delta) {
								dead = true
								break
							}
						}
						if !dead {
							got = append(got, id)
						}
					}
					sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
					want := oracle.Skyline(delta)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("δ=%0*b: merged %d ids, oracle %d\n got %v\nwant %v",
							d, delta, len(got), len(want), got, want)
					}
				}
			})
		}
	}
}

// TestDifferentialMembership cross-checks the inverse query: for a sample of
// points, the subspace list reported by the HashCube representation (MDMC)
// must equal the lattice representation's (QSkycube oracle).
func TestDifferentialMembership(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 1500, 5, 11)
	oracle, _, err := skycube.Build(ds, skycube.Options{Algorithm: skycube.QSkycube, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	cube, _, err := skycube.Build(ds, skycube.Options{
		Algorithm: skycube.MDMC, Threads: 4, CPUAlso: true,
		GPUs: []skycube.GPUModel{skycube.GTX980},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < 100; id++ {
		if got, want := cube.Membership(id), oracle.Membership(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("membership of point %d: %v, want %v", id, got, want)
		}
	}
}

// TestDifferentialHighDim carries the differential wall above d = 8, where
// no other tier-1 test builds: STSC, SDSC, MDMC and a cross-device MDMC
// agree cuboid for cuboid on every case, a MaxLevel-3 build equals the full
// cube restricted to |δ| ≤ 3, and BNL checks a seeded sample of cuboids that
// includes the full space and every singleton. PQSkycube, whose per-cuboid
// recursion is the slowest path here, runs on the smallest case only. Under
// -short only the d = 10 case runs. The cases run in parallel: no build
// keeps two cores busy on its own.
func TestDifferentialHighDim(t *testing.T) {
	for i, c := range []struct {
		dist skycube.Distribution
		name string
		n, d int
	}{
		{skycube.Independent, "independent", 2000, 10},
		{skycube.Anticorrelated, "anticorrelated", 500, 12},
		{skycube.Independent, "independent", 1000, 14},
		{skycube.Correlated, "correlated", 3000, 16},
	} {
		if testing.Short() && c.d != 10 {
			continue
		}
		t.Run(fmt.Sprintf("%s/d=%d/n=%d", c.name, c.d, c.n), func(t *testing.T) {
			t.Parallel()
			ds := skycube.GenerateSynthetic(c.dist, c.n, c.d, int64(97*c.d)+3)
			subspaces := skycube.AllSubspaces(c.d)
			ref, _, err := skycube.Build(ds, skycube.Options{Algorithm: skycube.MDMC, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[skycube.Subspace][]int32, len(subspaces))
			for _, delta := range subspaces {
				want[delta] = ref.Skyline(delta)
			}
			paths := []diffCase{
				{"STSC", skycube.Options{Algorithm: skycube.STSC, Threads: 2}},
				{"SDSC", skycube.Options{Algorithm: skycube.SDSC, Threads: 2}},
				{"MDMC-hetero", skycube.Options{Algorithm: skycube.MDMC, Threads: 2,
					GPUs: []skycube.GPUModel{skycube.GTX980}, CPUAlso: true}},
			}
			if i == 0 {
				paths = append(paths, diffCase{"PQSkycube", skycube.Options{Algorithm: skycube.PQSkycube, Threads: 2}})
			}
			for _, p := range paths {
				cube, _, err := skycube.Build(ds, p.opt)
				if err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				for _, delta := range subspaces {
					if got := cube.Skyline(delta); !slices.Equal(got, want[delta]) {
						t.Fatalf("%s: cuboid δ=%0*b has %d skyline points, MDMC has %d",
							p.name, c.d, delta, len(got), len(want[delta]))
					}
				}
			}

			partial, _, err := skycube.Build(ds, skycube.Options{Algorithm: skycube.MDMC, Threads: 2, MaxLevel: 3})
			if err != nil {
				t.Fatal(err)
			}
			for _, delta := range subspaces {
				if skycube.SubspaceSize(delta) > 3 {
					continue
				}
				if got := partial.Skyline(delta); !slices.Equal(got, want[delta]) {
					t.Fatalf("MaxLevel 3: cuboid δ=%0*b has %d skyline points, the full cube %d",
						c.d, delta, len(got), len(want[delta]))
				}
			}

			rows := make([][]float32, ds.Len())
			for r := range rows {
				rows[r] = ds.Point(r)
			}
			bnlData := data.FromRows(rows)
			sample := []skycube.Subspace{skycube.FullSpace(c.d)}
			for j := 0; j < c.d; j++ {
				sample = append(sample, skycube.SubspaceOf(j))
			}
			rng := rand.New(rand.NewSource(int64(c.d)))
			for j := 0; j < 24; j++ {
				sample = append(sample, subspaces[rng.Intn(len(subspaces))])
			}
			for _, delta := range sample {
				bnl := skyline.Compute(bnlData, nil, delta, skyline.AlgoBNL, 1).Skyline
				if !slices.Equal(want[delta], bnl) {
					t.Fatalf("BNL: cuboid δ=%0*b has %d skyline points in the cube, %d by BNL",
						c.d, delta, len(want[delta]), len(bnl))
				}
			}
		})
	}
}

// TestDifferentialUpdaterHighDim holds the updater to a fresh build at the
// paper's dimensionality, where a subspace set spans several words (d ≥ 7)
// and a full-space skyline member is a member of thousands of subspaces.
// Each case runs seeded rounds of inserts and deletes — every delete batch
// takes full-space skyline members as well as random ids — flushes each
// round and compacts every other one, and checks every epoch it makes on
// every cuboid, and every live point's membership, against an MDMC build of
// the live rows (TestDifferentialHighDim holds MDMC to the QSkycube oracle at
// these d). d = 10 and 12 run under -short too, d = 14 only without it.
func TestDifferentialUpdaterHighDim(t *testing.T) {
	for _, c := range []struct {
		dist skycube.Distribution
		name string
		n, d int
	}{
		{skycube.Independent, "independent", 1000, 12},
		{skycube.Anticorrelated, "anticorrelated", 300, 10},
		{skycube.Independent, "independent", 200, 14},
	} {
		if testing.Short() && c.d > 12 {
			continue
		}
		t.Run(fmt.Sprintf("%s/d=%d/n=%d", c.name, c.d, c.n), func(t *testing.T) {
			const rounds, inserts, deletes, members = 3, 40, 12, 4
			oracle := skycube.Options{Algorithm: skycube.MDMC, Threads: 2}
			seed := int64(131*c.d) + int64(c.n)
			base := skycube.GenerateSynthetic(c.dist, c.n, c.d, seed)
			pool := skycube.GenerateSynthetic(c.dist, rounds*inserts, c.d, seed+1)
			up, err := skycube.NewUpdater(base, skycube.Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer up.Close()
			live := make([]int32, c.n)
			for i := range live {
				live[i] = int32(i)
			}
			rng := rand.New(rand.NewSource(seed + 2))
			for round := 0; round < rounds; round++ {
				for i := round * inserts; i < (round+1)*inserts; i++ {
					id, err := up.Insert(pool.Point(i))
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
				}
				// Full-space members first: a member victim is what opens
				// subspaces in the points it dominated.
				victims := up.Current().Skyline(skycube.FullSpace(c.d))
				rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
				victims = victims[:min(members, len(victims))]
				for len(victims) < deletes {
					victims = append(victims, live[rng.Intn(len(live))])
				}
				for _, id := range victims {
					if err := up.Delete(id); err != nil {
						continue // drawn twice
					}
					i := slices.Index(live, id)
					live = append(live[:i], live[i+1:]...)
				}
				checkAgainstBuild(t, up.Flush(), live, oracle)
				if round%2 == 1 {
					checkAgainstBuild(t, up.Compact(), live, oracle)
				}
			}
		})
	}
}
