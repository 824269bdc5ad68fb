package cluster

import (
	"encoding/binary"
	"math"
	"math/rand"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"

	"skycube/internal/dom"
	"skycube/internal/mask"
)

func TestEncodeDecodePointListRoundTrip(t *testing.T) {
	cases := [][][]float32{
		nil,
		{{1, 2, 3}},
		{{-0.5, 1e-7, 3.4e38}, {0, -0, 42}},
		{{1.5e+20, -2.25e-30}, {float32(math.SmallestNonzeroFloat32), -1}},
		{{0.1, 0.2}, {0.1, 0.2}}, // duplicates survive
	}
	for _, pts := range cases {
		dims := 3
		if len(pts) > 0 {
			dims = len(pts[0])
		}
		enc := encodePointList(pts)
		got, err := decodePointList(enc, dims)
		if err != nil {
			t.Fatalf("decode(%q): %v", enc, err)
		}
		if len(got) != len(pts) {
			t.Fatalf("decode(%q): %d points, want %d", enc, len(got), len(pts))
		}
		for i := range pts {
			for j := range pts[i] {
				if got[i][j] != pts[i][j] {
					t.Fatalf("point %d coord %d: %v != %v (enc %q)", i, j, got[i][j], pts[i][j], enc)
				}
			}
		}
	}
}

// TestEncodePointListSurvivesQueryEscaping: 'g' formatting emits '+' in
// positive exponents, which a query parser decodes as a space unless the
// coordinator escapes it. This pins the escape/unescape/decode chain the
// pruned gather and the shard handler actually use.
func TestEncodePointListSurvivesQueryEscaping(t *testing.T) {
	pts := [][]float32{{1.5e+20, -3e-7}, {0.25, 1e+30}}
	enc := encodePointList(pts)
	if !strings.Contains(enc, "+") {
		t.Fatalf("encoding %v = %q: expected a '+' exponent to exercise escaping", pts, enc)
	}
	vals, err := url.ParseQuery("filter=" + url.QueryEscape(enc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodePointList(vals.Get("filter"), 2)
	if err != nil {
		t.Fatalf("decode after query round-trip: %v", err)
	}
	for i := range pts {
		for j := range pts[i] {
			if got[i][j] != pts[i][j] {
				t.Fatalf("query round-trip corrupted point %d coord %d: %v != %v", i, j, got[i][j], pts[i][j])
			}
		}
	}
}

func TestDecodePointListRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"1,2;3", // ragged width
		"1,2,3", // wrong dims (want 2)
		"a,b",   // not numbers
		"1,",    // empty coordinate
		strings.Repeat("1,1;", maxFilterPoints) + "1,1", // over the cap
	} {
		if pts, err := decodePointList(bad, 2); err == nil {
			t.Fatalf("decodePointList(%q) accepted: %v", bad, pts)
		}
	}
}

func TestDominatedByAny(t *testing.T) {
	full := mask.Mask(0b11)
	filter := [][]float32{{0.5, 0.5}, {0.1, 0.9}}
	if !dominatedByAny(filter, []float32{0.6, 0.6}, full) {
		t.Fatal("(0.6,0.6) should be dominated by (0.5,0.5)")
	}
	if dominatedByAny(filter, []float32{0.5, 0.5}, full) {
		t.Fatal("a point equal to a filter point is not dominated (Definition 1 needs strictness)")
	}
	if dominatedByAny(filter, []float32{0.05, 0.95}, full) {
		t.Fatal("(0.05,0.95) is incomparable to both filter points")
	}
	// Subspace {0}: only the first coordinate matters.
	if !dominatedByAny(filter, []float32{0.2, 0.0}, mask.Mask(0b01)) {
		t.Fatal("in subspace {0}, (0.2,*) is dominated by (0.1,*)")
	}
	if dominatedByAny(nil, []float32{0, 0}, full) {
		t.Fatal("an empty filter dominates nothing")
	}
}

// TestFilterMembersKernelAblation pins the shard-side witness filter: the
// DominatedBitmap form must keep exactly the members the scalar loop keeps,
// in the same order, with the same filtered count — both called directly,
// past the gate, on member counts on both sides of its threshold — and the
// gated entry point must agree with them.
func TestFilterMembersKernelAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 60; trial++ {
		n := []int{8, 63, 64, 65, 200, 300}[trial%6]
		d := 2 + rng.Intn(5)
		pts := make([][]float32, n)
		local := make([]int32, n)
		for i := range pts {
			pts[i] = gridPoint(rng, d)
			local[i] = int32(i)
		}
		filter := make([][]float32, 1+rng.Intn(6))
		for i := range filter {
			filter[i] = gridPoint(rng, d)
		}
		delta := mask.Mask(1 + rng.Intn(1<<uint(d)-1))
		point := func(r int32) []float32 { return pts[r] }
		wantKept, wantN := filterMembersScalar(local, point, filter, delta)
		for name, f := range map[string]func([]int32, func(int32) []float32, [][]float32, mask.Mask) ([]int32, int){
			"blocks": filterMembersBlocks, "gated": filterMembers,
		} {
			if gotKept, gotN := f(local, point, filter, delta); gotN != wantN || !reflect.DeepEqual(gotKept, wantKept) {
				t.Fatalf("trial %d (n=%d d=%d δ=%b): %s kept %d %v, scalar kept %d %v",
					trial, n, d, delta, name, gotN, gotKept, wantN, wantKept)
			}
		}
	}
}

func metaOf(epoch uint64, pts [][]float32, preK int, delta mask.Mask) shardMeta {
	m := shardMeta{count: len(pts), epoch: epoch, region: dom.RegionOf(pts)}
	if preK > 0 && len(pts) > 0 {
		m.reps = pickReps(pts, preK, delta)
	}
	return m
}

// pickReps mirrors the shard's bestReps selection on raw point slices: k
// points with the smallest coordinate sum over δ, ties by position.
func pickReps(pts [][]float32, k int, delta mask.Mask) [][]float32 {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sum := func(p []float32) float64 {
		var s float64
		for d := 0; d < len(p); d++ {
			if delta&mask.Bit(d) != 0 {
				s += float64(p[d])
			}
		}
		return s
	}
	sort.SliceStable(idx, func(a, b int) bool { return sum(pts[idx[a]]) < sum(pts[idx[b]]) })
	if k > len(idx) {
		k = len(idx)
	}
	out := make([][]float32, k)
	for i := 0; i < k; i++ {
		out[i] = pts[idx[i]]
	}
	return out
}

func TestUpfrontSkips(t *testing.T) {
	full := mask.Mask(0b11)
	// Shard 0's whole region is strictly better than shard 1's; shard 2 is
	// empty; shard 3 is incomparable.
	metas := []shardMeta{
		metaOf(1, [][]float32{{0.1, 0.1}, {0.2, 0.2}}, 0, full),
		metaOf(1, [][]float32{{0.5, 0.5}, {0.9, 0.9}}, 0, full),
		metaOf(1, nil, 0, full),
		metaOf(1, [][]float32{{0.05, 0.95}}, 0, full),
	}
	skip := upfrontSkips(metas, full)
	want := []bool{false, true, true, false}
	for i := range want {
		if skip[i] != want[i] {
			t.Fatalf("skip = %v, want %v", skip, want)
		}
	}

	// Region corners alone cannot prove it, but a representative point can:
	// shard 0's box overlaps shard 1's, yet its best actual point dominates
	// shard 1's whole region.
	overlap := []shardMeta{
		metaOf(1, [][]float32{{0.1, 0.1}, {0.8, 0.8}}, 1, full),
		metaOf(1, [][]float32{{0.5, 0.5}, {0.7, 0.6}}, 1, full),
	}
	if s := upfrontSkips([]shardMeta{{count: overlap[0].count, epoch: 1, region: overlap[0].region},
		{count: overlap[1].count, epoch: 1, region: overlap[1].region}}, full); s[0] || s[1] {
		t.Fatalf("corners alone skipped a shard: %v", s)
	}
	if s := upfrontSkips(overlap, full); s[0] || !s[1] {
		t.Fatalf("rep (0.1,0.1) should skip shard 1: %v", s)
	}

	// Mutually non-dominating shards: nobody is skipped, and in particular
	// never everybody (the acyclicity guarantee).
	inc := []shardMeta{
		metaOf(1, [][]float32{{0.1, 0.9}}, 1, full),
		metaOf(1, [][]float32{{0.9, 0.1}}, 1, full),
	}
	if s := upfrontSkips(inc, full); s[0] || s[1] {
		t.Fatalf("incomparable shards skipped: %v", s)
	}
}

func TestBuildFilterExcludesSelf(t *testing.T) {
	full := mask.Mask(0b11)
	metas := []shardMeta{
		metaOf(1, [][]float32{{0.1, 0.2}, {0.3, 0.4}}, 1, full),
		metaOf(1, [][]float32{{0.5, 0.6}}, 1, full),
		metaOf(1, nil, 1, full), // empty: contributes nothing
	}
	f := buildFilter(metas, 0)
	// Shard 0's filter: shard 1's max corner plus its one rep — and nothing
	// from shard 0 itself or the empty shard 2.
	if len(f) != 2 {
		t.Fatalf("filter for shard 0 has %d points, want 2: %v", len(f), f)
	}
	for _, p := range f {
		if p[0] != 0.5 || p[1] != 0.6 {
			t.Fatalf("filter for shard 0 contains foreign point %v, want only (0.5,0.6)", p)
		}
	}
	// A shard's own max corner can never Definition-1-dominate its own
	// members (it is componentwise ≥ each of them), so shipping it back is
	// pure waste — pin that it stays excluded.
	for _, p := range metas[0].reps {
		if dom.DominatesIn(metas[0].region.Max, p, full) {
			t.Fatalf("own max corner dominated own member %v", p)
		}
	}
	for _, p := range buildFilter(metas, 1) {
		if p[0] == 0.5 && p[1] == 0.6 {
			t.Fatalf("shard 1's filter contains its own point: %v", buildFilter(metas, 1))
		}
	}
}

// fuzzPrunePlan decodes raw fuzz bytes into a deterministic multi-shard
// scenario: d in [2,4], k shards in [1,5] placed round-robin or skewed, preK
// reps in [0,3], then int16 coordinate pairs on a 1/16384 grid (negative
// coordinates and exact duplicates arise naturally).
func fuzzPrunePlan(raw []byte) (d, k, preK int, skewed bool, pts [][]float32) {
	if len(raw) < 3 {
		return 0, 0, 0, false, nil
	}
	d = 2 + int(raw[0])%3
	k = 1 + (int(raw[1])+1)%5
	skewed = raw[1] >= 128
	preK = int(raw[2]) % 4
	body := raw[3:]
	n := len(body) / (2 * d)
	if n > 48 {
		n = 48
	}
	if n < k {
		return 0, 0, 0, false, nil
	}
	pts = make([][]float32, n)
	for i := 0; i < n; i++ {
		p := make([]float32, d)
		for j := 0; j < d; j++ {
			u := binary.LittleEndian.Uint16(body[(i*d+j)*2:])
			p[j] = float32(int16(u)) / 16384
		}
		pts[i] = p
	}
	return d, k, preK, skewed, pts
}

// FuzzPrunedMergeEquivalence drives the pure pruning pipeline — prelude
// metadata, upfront region/rep skips, per-destination filters, source-side
// drops, frames through the wire codec, the merge — and the plain
// frames-then-merge on the same sharding, and requires of both the
// brute-force skyline of all the points (an oracle that runs none of that
// code), plus exact considered-count accounting, for every subspace. This is
// the merge path's equivalence obligation with no HTTP in the way.
func FuzzPrunedMergeEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{1, 1, 2,
		0xff, 0x7f, 0, 0x80, 0x10, 0, // extreme positive/negative/small
		0x10, 0, 0x10, 0, 0x10, 0,
		0xff, 0xff, 0xee, 0xee, 0x01, 0x00,
		0x00, 0x40, 0x00, 0xc0, 0x00, 0x20})
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, k, preK, skewed, pts := fuzzPrunePlan(raw)
		if pts == nil {
			t.Skip("not enough bytes for a scenario")
		}
		// Global id = index.
		points := make(map[int32][]float32, len(pts))
		parts := make([][]int32, k)
		for i, p := range pts {
			points[int32(i)] = p
			s := assignShard(i, k, skewed)
			parts[s] = append(parts[s], int32(i))
		}
		point := func(id int32) []float32 { return pts[id] }
		for delta := mask.Mask(1); delta < mask.Mask(1)<<d; delta++ {
			want := bruteSkyline(points, delta)

			plain := make([]*cuboidFrame, k)
			locals := make([][][]float32, k) // shard -> local skyline points
			totalLocal := 0
			for s := range parts {
				plain[s] = localFrame(t, parts[s], point, delta, nil)
				totalLocal += len(plain[s].ids)
				for _, id := range plain[s].ids {
					locals[s] = append(locals[s], pts[id])
				}
			}
			if got, _ := mergeFrames(plain, delta); !equalIDs(got, want) {
				t.Fatalf("subspace %b: unpruned merge %v != brute force %v (d=%d k=%d skewed=%v, %d pts)",
					delta, got, want, d, k, skewed, len(pts))
			}

			metas := make([]shardMeta, k)
			for s := range metas {
				metas[s] = metaOf(7, locals[s], preK, delta)
			}
			skips := upfrontSkips(metas, delta)
			pruned := make([]*cuboidFrame, k)
			considered := 0
			for s := range metas {
				if skips[s] {
					considered += metas[s].count
					continue
				}
				pruned[s] = localFrame(t, parts[s], point, delta, buildFilter(metas, s))
				considered += len(pruned[s].ids) + pruned[s].filtered
			}
			if got, _ := mergeFrames(pruned, delta); !equalIDs(got, want) {
				t.Fatalf("subspace %b: pruned merge %v != brute force %v (d=%d k=%d skewed=%v preK=%d, %d pts)",
					delta, got, want, d, k, skewed, preK, len(pts))
			}
			if considered != totalLocal {
				t.Fatalf("subspace %b: considered %d points, want Σ|local| = %d", delta, considered, totalLocal)
			}
		}
	})
}
