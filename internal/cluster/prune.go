// Communication-efficient gather: source-side region pruning and the
// representative-point pre-filter.
//
// The unpruned scatter-gather ships every shard-local skyline member to the
// coordinator and lets one final dominance filter remove the impostors. Most
// of those bytes are wasted: a point dominated by *any* actual point of
// another shard can never survive the merge. This file gives the cluster
// three ways to prove that before the bytes move:
//
//   - Region corners (always on with Prune): the prelude round fetches each
//     shard's per-cuboid bounding box (min/max corner over its local S_δ)
//     plus its count and epoch. A shard whose whole region is dominated by
//     another non-empty shard's region is skipped outright; every other
//     shard receives the foreign max corners as filter points and drops the
//     local members they dominate before replying.
//
//   - Representative points (PreFilterK > 0): the prelude additionally asks
//     each shard for its k best points by sum-of-coordinates in the queried
//     subspace. Reps are actual points, so they prune far more than corners
//     on datasets whose shard boxes overlap.
//
//   - Arrival-order late skips: as cuboid replies stream in, their actual
//     points are tested against the min corners of still-pending shards; a
//     pending shard whose entire region is dominated by an arrived point is
//     cancelled mid-flight.
//
// Soundness rests on every filter point witnessing an actual stored point:
// a rep IS a point, and a non-empty region's max corner is dominated-by
// implies dominated-by-every-region-point (internal/dom/region.go). A shard
// never receives its own corner or reps — they can never Definition-1
// dominate its own result members (the corner is componentwise ≥ each of
// them; reps are members, and members are mutually undominated), so
// shipping them back is pure waste.
//
// Exactness: the pruned merge is byte-identical to the unpruned merge at
// the prelude's epoch vector. Dropped points are exactly points the final
// dominance filter would discard (a dominated point's minimal dominator is
// globally undominated, hence locally undominated, hence shipped — the
// transitivity argument of the package comment), and the response's
// Candidates field counts *considered* points (shipped + filtered +
// skipped), which both paths agree equals Σ|local S_δ|. The pruned path
// validates that every gathered shard still serves its prelude epoch and
// falls back to the plain gather on any prelude failure, gather failure or
// epoch mismatch — degraded is unpruned or an honest 206, never silently
// wrong.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
	"skycube/internal/obs"
)

// DefaultPreFilterMinShards is the shard count below which the
// representative pre-filter is skipped automatically: with very few shards
// the rep broadcast costs about what it saves.
const DefaultPreFilterMinShards = 3

// maxFilterPoints caps how many filter points a shard accepts in one cuboid
// request (the coordinator stays far below this; the cap bounds adversarial
// query cost).
const maxFilterPoints = 4096

// encodePointList renders points as "v1,v2;v1,v2" with strconv's shortest
// round-trip float32 formatting. The result goes into a URL query parameter
// — callers must url.QueryEscape it ('g' formatting can emit '+' in
// exponents, which would decode as a space).
func encodePointList(pts [][]float32) string {
	var sb strings.Builder
	for i, p := range pts {
		if i > 0 {
			sb.WriteByte(';')
		}
		for j, v := range p {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatFloat(float64(v), 'g', -1, 32))
		}
	}
	return sb.String()
}

// decodePointList parses encodePointList's format, requiring every point to
// have exactly dims finite coordinates.
func decodePointList(s string, dims int) ([][]float32, error) {
	if s == "" {
		return nil, nil
	}
	groups := strings.Split(s, ";")
	if len(groups) > maxFilterPoints {
		return nil, fmt.Errorf("filter has %d points (max %d)", len(groups), maxFilterPoints)
	}
	pts := make([][]float32, len(groups))
	for i, g := range groups {
		fields := strings.Split(g, ",")
		if len(fields) != dims {
			return nil, fmt.Errorf("filter point %d has %d coordinates, want %d", i, len(fields), dims)
		}
		p := make([]float32, dims)
		for j, f := range fields {
			v, err := strconv.ParseFloat(f, 32)
			if err != nil {
				return nil, fmt.Errorf("filter point %d coordinate %d: %v", i, j, err)
			}
			p[j] = float32(v)
		}
		pts[i] = p
	}
	return pts, nil
}

// dominatedByAny reports whether any filter point dominates p in δ. Filter
// points are dominance witnesses (actual points or non-empty-region max
// corners), so a true result proves p cannot be in the global skyline.
func dominatedByAny(filter [][]float32, p []float32, delta mask.Mask) bool {
	for _, f := range filter {
		if dom.DominatesIn(f, p, delta) {
			return true
		}
	}
	return false
}

// filterMembers drops the members of local that any filter point dominates
// in δ, returning the survivors (in local's order) and the drop count. The
// block path packs the members into SoA blocks and crosses off each filter
// point's victims 64 lanes at a time with DominatedBitmap; both paths keep
// exactly the same members in the same order.
func filterMembers(local []int32, point func(int32) []float32, filter [][]float32, delta mask.Mask) ([]int32, int) {
	if dom.UseBlocks(len(local), mask.Count(delta), dom.Probe) {
		return filterMembersBlocks(local, point, filter, delta)
	}
	return filterMembersScalar(local, point, filter, delta)
}

func filterMembersScalar(local []int32, point func(int32) []float32, filter [][]float32, delta mask.Mask) ([]int32, int) {
	kept := make([]int32, 0, len(local))
	filtered := 0
	for _, row := range local {
		if dominatedByAny(filter, point(row), delta) {
			filtered++
			continue
		}
		kept = append(kept, row)
	}
	return kept, filtered
}

// filterMembersBlocks is the block-kernel form of filterMembers. Members go
// into blocks in local order (sums are irrelevant here — no stop points, the
// scan is witness-outer), each filter point marks its victims with one
// DominatedBitmap sweep per block, and surviving lanes come back out in
// append order, so the kept slice is byte-identical to the scalar loop's.
func filterMembersBlocks(local []int32, point func(int32) []float32, filter [][]float32, delta mask.Mask) ([]int32, int) {
	dims := mask.Dims(delta)
	bs := data.GetBlockSet(len(dims), data.DefaultBlockSize)
	defer data.PutBlockSet(bs)
	pq := make([]float32, len(dims))
	for _, row := range local {
		data.ProjectInto(pq, point(row), dims)
		bs.Append(pq, row, 0)
	}

	var tally dom.KernelTally
	words := (data.DefaultBlockSize + 63) / 64
	drop := make([]uint64, words)
	sweep := make([]uint64, words)
	kept := make([]int32, 0, len(local))
	for _, b := range bs.Blocks {
		bw := (b.N + 63) >> 6
		for w := 0; w < bw; w++ {
			drop[w] = 0
		}
		for _, f := range filter {
			data.ProjectInto(pq, f, dims)
			dom.DominatedBitmap(b, pq, false, sweep[:bw], &tally)
			for w := 0; w < bw; w++ {
				drop[w] |= sweep[w]
			}
		}
		for lane := 0; lane < b.N; lane++ {
			if drop[lane>>6]&(1<<uint(lane&63)) == 0 {
				kept = append(kept, b.Rows[lane])
			}
		}
	}
	tally.Flush()
	return kept, len(local) - len(kept)
}

// shardMeta is one shard's prelude contribution: its local cuboid size and
// epoch, the bounding box of its local result, and its representative
// points. The zero region (nil corners) means the shard's cuboid is empty.
type shardMeta struct {
	count  int
	epoch  uint64
	region dom.Region
	reps   [][]float32
}

// upfrontSkips decides, from prelude metadata alone, which shards need not
// be gathered at all: empty shards, and shards whose entire region is
// dominated by another shard's region or by another shard's representative
// point. The skip relation cannot cycle — every witness w_j of "skip i"
// satisfies min_j ≤ w_j and w_j ≺ min_i, so a cycle would chain into a
// strict self-domination — hence at least one non-empty shard always
// survives.
func upfrontSkips(metas []shardMeta, delta mask.Mask) []bool {
	skip := make([]bool, len(metas))
	for i := range metas {
		if metas[i].count == 0 {
			skip[i] = true
			continue
		}
		for j := range metas {
			if j == i || metas[j].count == 0 {
				continue
			}
			if dom.RegionDominatesRegion(metas[j].region, metas[i].region, delta) {
				skip[i] = true
				break
			}
			dominated := false
			for _, rep := range metas[j].reps {
				if dom.PointDominatesRegion(rep, metas[i].region, delta) {
					dominated = true
					break
				}
			}
			if dominated {
				skip[i] = true
				break
			}
		}
	}
	return skip
}

// buildFilter assembles destination shard self's filter set: every OTHER
// non-empty shard's max corner plus its representative points. The
// destination's own corner and reps are excluded: they cannot prune any of
// its own result members (the corner is componentwise ≥ each member, and
// members never dominate each other), so sending them is wasted bytes and
// wasted dominance tests.
func buildFilter(metas []shardMeta, self int) [][]float32 {
	var out [][]float32
	for j := range metas {
		if j == self || metas[j].count == 0 {
			continue
		}
		out = append(out, metas[j].region.Max)
		out = append(out, metas[j].reps...)
	}
	return out
}

// pruneFallback records the pruned gather abandoning its prelude.
func (c *Coordinator) pruneFallback(rec *obs.ReqRecord, reason string, err error) {
	c.cm.PruneFallback(reason)
	ev := obs.Event{Kind: obs.EvPruneFallback, Detail: reason, Start: rec.Since()}
	if err != nil {
		ev.Err = err.Error()
	}
	rec.Event(ev)
	if c.opt.Logger != nil {
		c.opt.Logger.Printf("cluster: pruned gather fell back (%s): %v", reason, err)
	}
}

// gatherPruned runs the pruned gather: prelude (corners + reps), upfront
// region skips, filtered cuboid fan-out with arrival-order late skips, and
// per-shard epoch validation. ok=false means the caller must fall back to
// the plain gather; the reason has already been recorded.
func (c *Coordinator) gatherPruned(ctx context.Context, m *shardMap, delta mask.Mask) ([]*cuboidFrame, map[string]uint64, int, bool) {
	rec := obs.RecordFrom(ctx)
	n := len(m.shards)
	preK := c.opt.PreFilterK
	if n < c.opt.PreFilterMinShards {
		preK = 0
	}
	metaPath := fmt.Sprintf("/shard/skymeta?subspace=%d", uint32(delta))
	if preK > 0 {
		metaPath += "&k=" + strconv.Itoa(preK)
	}

	// Prelude: every shard's corners (and reps) — tiny bodies, full
	// hedge/retry machinery. Any failure aborts pruning: a missing region
	// means missing witnesses, and guessing is how wrong answers happen.
	preludeStart := rec.Since()
	metas := make([]shardMeta, n)
	type metaResult struct {
		idx int
		err error
	}
	mch := make(chan metaResult, n)
	for i, g := range m.shards {
		go func(i int, g *shardGroup) {
			body, err := c.client.get(ctx, g, metaPath, m.gen)
			if err == nil {
				var sm skymetaResponse
				if err = json.Unmarshal(body, &sm); err == nil {
					metas[i] = shardMeta{count: sm.Count, epoch: sm.Epoch,
						region: dom.Region{Min: sm.Min, Max: sm.Max}, reps: sm.Reps}
				}
			}
			mch <- metaResult{i, err}
		}(i, g)
	}
	var preludeErr error
	for range m.shards {
		if r := <-mch; r.err != nil && preludeErr == nil {
			preludeErr = fmt.Errorf("shard %s skymeta: %w", m.shards[r.idx].name, r.err)
		}
	}
	if preludeErr != nil {
		c.pruneFallback(rec, "prelude_error", preludeErr)
		return nil, nil, 0, false
	}
	if preK > 0 {
		totalReps := 0
		for i := range metas {
			totalReps += len(metas[i].reps)
		}
		c.cm.Prefilter(totalReps)
		rec.Event(obs.Event{Kind: obs.EvPrefilter, Start: preludeStart,
			Dur: rec.Since() - preludeStart, N: int64(totalReps)})
	}

	skipped := upfrontSkips(metas, delta)

	// Filtered fan-out to the surviving shards, each under its own
	// cancellable context so a late skip can abandon the request mid-flight
	// (the client releases breaker probes on cancellation, so our own
	// cancels never look like replica failures).
	basePath := fmt.Sprintf("/shard/cuboid?subspace=%d", uint32(delta))
	type prResult struct {
		idx int
		shardReply
	}
	ch := make(chan prResult, n)
	cancels := make([]context.CancelFunc, n)
	defer func() {
		for _, cf := range cancels {
			if cf != nil {
				cf()
			}
		}
	}()
	active := 0
	for i, g := range m.shards {
		if skipped[i] {
			continue
		}
		path := basePath
		if f := buildFilter(metas, i); len(f) > 0 {
			path += "&filter=" + url.QueryEscape(encodePointList(f))
		}
		cctx, cancel := context.WithCancel(ctx)
		cancels[i] = cancel
		active++
		go func(i int, g *shardGroup, path string, cctx context.Context) {
			ch <- prResult{i, c.fetchFrame(cctx, g, path, m.gen, delta)}
		}(i, g, path, cctx)
	}

	dims, full := mask.Dims(delta), mask.Full(mask.Count(delta))
	lane := laneBytes(len(dims))
	minCorner, lanePoint := make([]float32, len(dims)), make([]float32, len(dims))
	frames := make([]*cuboidFrame, n)
	lateSkipped := make([]bool, n)
	var fallbackReason string
	var fallbackErr error
	for got := 0; got < active; got++ {
		r := <-ch
		if lateSkipped[r.idx] {
			// Either our cancellation surfacing as an error, or the response
			// racing the cancel: the shard is skipped either way, and the
			// prelude already accounts for it.
			continue
		}
		g := m.shards[r.idx]
		if r.err != nil {
			fallbackReason, fallbackErr = "gather_error", fmt.Errorf("shard %s: %w", g.name, r.err)
			break
		}
		if r.frame.epoch != metas[r.idx].epoch {
			// The shard advanced between prelude and gather: the filter
			// points other shards pruned with may reference points this
			// epoch no longer holds. Only the unpruned path is exact now.
			fallbackReason = "epoch_mismatch"
			fallbackErr = fmt.Errorf("shard %s answered at epoch %d, prelude saw %d",
				g.name, r.frame.epoch, metas[r.idx].epoch)
			break
		}
		c.reportReply(rec, g, r.shardReply)
		if r.frame.filtered > 0 {
			c.cm.Pruned(g.name, len(r.frame.ids)+r.frame.filtered, r.frame.filtered, r.frame.filtered*lane)
			rec.Event(obs.Event{Kind: obs.EvPrune, Shard: g.name,
				Start: rec.Since(), N: int64(r.frame.filtered)})
		}
		frames[r.idx] = r.frame
		// Arrival-order late skips: an arrived actual point dominating a
		// pending shard's min corner — compared on δ's columns, which is all
		// a frame carries — dominates that shard's every result point: stop
		// asking.
		for j := range m.shards {
			if j == r.idx || skipped[j] || lateSkipped[j] || frames[j] != nil || metas[j].region.Min == nil {
				continue
			}
			data.ProjectInto(minCorner, metas[j].region.Min, dims)
			for i := range r.frame.ids {
				for k, col := range r.frame.cols {
					lanePoint[k] = col[i]
				}
				if dom.DominatesIn(lanePoint, minCorner, full) {
					lateSkipped[j] = true
					cancels[j]()
					break
				}
			}
		}
	}
	if fallbackReason != "" {
		c.pruneFallback(rec, fallbackReason, fallbackErr)
		return nil, nil, 0, false
	}

	// Assemble: epochs and considered counts cover every shard (skipped ones
	// at their prelude epoch, which gathered epochs were just validated
	// against — the whole response corresponds to the prelude's epoch vector).
	epochs := make(map[string]uint64, n)
	considered := 0
	for i, g := range m.shards {
		if f := frames[i]; f != nil {
			epochs[g.name] = f.epoch
			considered += len(f.ids) + f.filtered
			continue
		}
		epochs[g.name] = metas[i].epoch
		considered += metas[i].count
		detail := "upfront"
		if lateSkipped[i] {
			detail = "late"
		}
		c.cm.ShardSkipped(g.name, metas[i].count, metas[i].count*lane)
		rec.Event(obs.Event{Kind: obs.EvPruneSkip, Shard: g.name, Detail: detail,
			Start: rec.Since(), N: int64(metas[i].count), Epoch: metas[i].epoch})
	}
	return frames, epochs, considered, true
}
