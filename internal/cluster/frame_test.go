package cluster

import (
	"bytes"
	"encoding/binary"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skycube"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/wal"
)

// fuzzFrame reads raw as a frame-building plan — one byte of subspace over
// five dimensions, then per point two bytes of id and five float32 bit
// patterns, NaN and ±Inf patterns nudged to finite ones (a dataset never
// holds them) — and returns the subspace, the members and their encoding.
// Equal points under distinct ids, −0 and subnormals arise from the bytes as
// they are.
func fuzzFrame(raw []byte) (delta mask.Mask, ids []int32, pts [][]float32, wire []byte) {
	const d, stride = 5, 2 + 4*5
	if len(raw) < 1 {
		return 0, nil, nil, nil
	}
	delta = mask.Mask(1 + int(raw[0])%(1<<d-1))
	body := raw[1:]
	n := min(len(body)/stride, 8) // every bit of the encoding is flipped in turn: keep it short
	ids = make([]int32, n)
	pts = make([][]float32, n)
	for i := range pts {
		rec := body[i*stride:]
		ids[i] = int32(binary.LittleEndian.Uint16(rec))<<5 | int32(i) // distinct, in any order
		pts[i] = make([]float32, d)
		for j := range pts[i] {
			bits := binary.LittleEndian.Uint32(rec[2+4*j:])
			if bits&0x7f800000 == 0x7f800000 {
				bits &^= 0x00800000
			}
			pts[i][j] = math.Float32frombits(bits)
		}
	}
	return delta, ids, pts, encodeCuboidFrame(delta, uint64(len(raw)), ids, func(i int) []float32 { return pts[i] })
}

// swapLanes returns wire with lanes a and b of its n-lane, k-column frame
// exchanged, under a fresh CRC.
func swapLanes(t *testing.T, wire []byte, n, k, a, b int) []byte {
	t.Helper()
	payload, _, err := wal.OpenFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Clone(payload)
	for col := 0; col <= k; col++ { // the id column, then δ's
		wa, wb := p[frameHeaderSize+4*(col*n+a):][:4], p[frameHeaderSize+4*(col*n+b):][:4]
		for i := range wa {
			wa[i], wb[i] = wb[i], wa[i]
		}
	}
	return wal.AppendFrame(nil, p)
}

// lyingCountFrame is an intact envelope around a header that claims 2³¹
// lanes and carries none: a decoder that sized its slices from the header
// would ask for 16 GiB.
func lyingCountFrame() []byte {
	p := make([]byte, frameHeaderSize)
	copy(p, frameMagic)
	binary.LittleEndian.PutUint32(p[4:], 0b11)
	binary.LittleEndian.PutUint32(p[16:], 1<<31)
	binary.LittleEndian.PutUint32(p[20:], 2)
	return wal.AppendFrame(nil, p)
}

// skf1Frame is an intact one-lane answer to δ = {0,2} in the retired layout:
// magic "SKF1" and a 28-byte header with a filtered word before k.
func skf1Frame() []byte {
	p := make([]byte, 28+4*3)
	copy(p, "SKF1")
	binary.LittleEndian.PutUint32(p[4:], 0b101)
	binary.LittleEndian.PutUint64(p[8:], 9)
	binary.LittleEndian.PutUint32(p[16:], 1)
	binary.LittleEndian.PutUint32(p[24:], 2)
	binary.LittleEndian.PutUint32(p[28:], 4)
	binary.LittleEndian.PutUint32(p[32:], math.Float32bits(0.5))
	binary.LittleEndian.PutUint32(p[36:], math.Float32bits(0.25))
	return wal.AppendFrame(nil, p)
}

// TestRetiredFrameVersionRejected: a shard still speaking SKF1 fails the
// frame check — its reply is never read at the new offsets.
func TestRetiredFrameVersionRejected(t *testing.T) {
	if f, err := decodeCuboidFrame(skf1Frame(), 0b101); err == nil {
		t.Fatalf("an SKF1 frame decoded as %+v", f)
	}
}

// FuzzCuboidFrame holds the /shard/cuboid codec to its contract from both
// ends. The bytes as they come are handed to the decoder, which must not
// panic, must not allocate beyond their size (a lying count is a seed), and
// may accept only a frame in δ-sum order. The bytes read as a plan are
// encoded, and must decode to exactly the members that went in, bit for bit
// and in (δ-sum, id) order; then every single-bit flip and every truncation
// of the encoding, the encoding offered as the answer to another subspace,
// and the encoding with two lanes swapped out of sum order under a fresh
// CRC, must be rejected.
func FuzzCuboidFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(lyingCountFrame())
	f.Add(skf1Frame())
	f.Add(encodeCuboidFrame(0b101, 9, []int32{4, 2}, func(i int) []float32 {
		return [][]float32{{0.5, 9, 0.25}, {0.25, 9, 0.5}}[i]
	}))
	negZero := math.Float32bits(float32(math.Copysign(0, -1)))
	plan := []byte{30} // δ = {0,1,2,3,4}
	for i, bits := range [][5]uint32{
		{negZero, 0, negZero, 0, 1},                                  // −0 and a subnormal
		{0, negZero, 0, negZero, 1},                                  // the same sum, another id
		{0x3f800000, 0x3f000000, 0x3e800000, 0x00000001, 0x80000001}, // 1, ½, ¼, ±subnormal
		{0x3f800000, 0x3f000000, 0x3e800000, 0x00000001, 0x80000001}, // an equal point
		{0x7f7fffff, 0x7f7fffff, 0xff7fffff, 0x7fc00000, 0x7f800000}, // ±max, NaN, +Inf bits
	} {
		plan = binary.LittleEndian.AppendUint16(plan, uint16(40-7*i))
		for _, b := range bits {
			plan = binary.LittleEndian.AppendUint32(plan, b)
		}
	}
	f.Add(plan)

	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, delta := range []mask.Mask{0b11, 0b101, mask.Full(5)} {
			if got, err := decodeCuboidFrame(raw, delta); err == nil &&
				(len(got.cols) != mask.Count(delta) || !slices.IsSorted(got.sums)) {
				t.Fatalf("δ=%b: accepted %x as %d columns with sums %v", delta, raw, len(got.cols), got.sums)
			}
		}

		delta, ids, pts, wire := fuzzFrame(raw)
		if wire == nil {
			return
		}
		got, err := decodeCuboidFrame(wire, delta)
		if err != nil {
			t.Fatalf("decode of a fresh frame: %v", err)
		}
		checkFrameShape(t, got, delta, len(wire))
		if got.epoch != uint64(len(raw)) || len(got.ids) != len(ids) {
			t.Fatalf("round trip: epoch %d lanes %d", got.epoch, len(got.ids))
		}
		lane := map[int32]int{}
		for i, id := range got.ids {
			lane[id] = i
		}
		for i, id := range ids {
			for j, dim := range mask.Dims(delta) {
				if in, out := pts[i][dim], got.cols[j][lane[id]]; math.Float32bits(in) != math.Float32bits(out) {
					t.Fatalf("id %d dimension %d: %x went in, %x came out", id, dim, math.Float32bits(in), math.Float32bits(out))
				}
			}
		}
		if _, err := decodeCuboidFrame(wire, delta^1); err == nil {
			t.Fatalf("a frame for δ=%b was accepted as the answer for δ=%b", delta, delta^1)
		}

		mut := make([]byte, len(wire))
		for bit := 0; bit < 8*len(wire); bit++ {
			copy(mut, wire)
			mut[bit/8] ^= 1 << (bit % 8)
			if _, err := decodeCuboidFrame(mut, delta); err == nil {
				t.Fatalf("bit %d flipped and the frame was accepted", bit)
			}
		}
		for cut := 0; cut < len(wire); cut++ {
			if _, err := decodeCuboidFrame(wire[:cut], delta); err == nil {
				t.Fatalf("truncated to %d of %d bytes and accepted", cut, len(wire))
			}
		}
		if n := len(got.ids); n > 1 && got.sums[0] < got.sums[n-1] {
			if _, err := decodeCuboidFrame(swapLanes(t, wire, n, len(got.cols), 0, n-1), delta); err == nil {
				t.Fatalf("lanes 0 and %d swapped out of δ-sum order and accepted", n-1)
			}
		}
	})
}

// frameFault wraps a shard and damages its /shard/cuboid replies: "flip"
// inverts one payload bit, "truncate" drops the tail, "subspace" answers for
// another subspace of the same width (an intact frame, for the wrong
// question), "" passes through.
type frameFault struct {
	inner http.Handler
	mode  atomic.Value // string
}

func (f *frameFault) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mode, _ := f.mode.Load().(string)
	if mode == "" || r.URL.Path != "/shard/cuboid" {
		f.inner.ServeHTTP(w, r)
		return
	}
	if mode == "subspace" {
		r = r.Clone(r.Context())
		r.URL.RawQuery = strings.Replace(r.URL.RawQuery, "subspace=3", "subspace=5", 1)
	}
	rec := httptest.NewRecorder()
	f.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	switch mode {
	case "flip":
		body[len(body)-3] ^= 0x10
	case "truncate":
		body = body[:len(body)-5]
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// TestCorruptFrameFailsItsShard: a shard whose cuboid reply does not decode
// is a failed fan-out like a dead one — 206, named in failed_shards, the ids
// exactly the skyline of the other shard's partition, nothing memoized — and
// an operator can see why: the failure counter moves, and the log line and
// the trace's shard_result event carry the decoder's reason.
func TestCorruptFrameFailsItsShard(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 300, 3, 97)
	parts, err := ds.Partition(2, skycube.RoundRobinPartition)
	if err != nil {
		t.Fatal(err)
	}
	var specs []ShardSpec
	var fault *frameFault
	for s, part := range parts {
		sh, err := NewShard(part, skycube.Options{Threads: 2}, ShardOptions{IDBase: s, IDStride: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sh.Close)
		fault = &frameFault{inner: sh} // the last one built, shard 1, is the one damaged
		srv := httptest.NewServer(fault)
		t.Cleanup(srv.Close)
		specs = append(specs, ShardSpec{Replicas: []string{srv.URL}, IDBase: s, IDStride: 2})
	}
	var logged bytes.Buffer
	reg := obs.NewRegistry()
	ring := obs.NewRequestRing(16)
	coord, err := NewCoordinator(specs, CoordinatorOptions{
		Timeout: 5 * time.Second,
		Metrics: reg, Logger: log.New(&logged, "", 0), Requests: ring,
	})
	if err != nil {
		t.Fatal(err)
	}

	const delta = mask.Mask(0b011)
	shard0 := map[int32][]float32{}
	for row := 0; row < parts[0].Len(); row++ {
		shard0[int32(2*row)] = parts[0].Point(row)
	}
	want := bruteSkyline(shard0, delta)

	for _, c := range []struct{ mode, reason string }{
		{"flip", "CRC mismatch"},
		{"truncate", "torn frame"},
		{"subspace", "answers subspace 5 in 2 columns, asked for 3"},
	} {
		fault.mode.Store(c.mode)
		logged.Reset()
		failuresBefore := metricTotal(t, reg, "skycube_cluster_shard_failures_total")
		trace := obs.NewTraceID()
		rec := httptest.NewRecorder()
		coord.ServeHTTP(rec, traceRequest("/skyline?dims=0,1", obs.Traceparent(trace, obs.NewSpanID())))
		if rec.Code != http.StatusPartialContent {
			t.Fatalf("%s: status %d, want 206: %s", c.mode, rec.Code, rec.Body.String())
		}
		var resp skylineResponse
		mustUnmarshal(t, rec.Body.Bytes(), &resp)
		if !resp.Partial || len(resp.FailedShards) != 1 || resp.FailedShards[0] != "1" {
			t.Fatalf("%s: partial=%v failed_shards=%v, want shard 1 named", c.mode, resp.Partial, resp.FailedShards)
		}
		if !equalIDs(resp.IDs, want) {
			t.Fatalf("%s: ids %v, want shard 0's skyline %v", c.mode, resp.IDs, want)
		}
		if n := coord.cache.Len(); n != 0 {
			t.Fatalf("%s: %d entries memoized from a partial answer", c.mode, n)
		}
		if got := metricTotal(t, reg, "skycube_cluster_shard_failures_total") - failuresBefore; got != 1 {
			t.Fatalf("%s: shard failure counter moved by %v, want 1", c.mode, got)
		}
		if line := logged.String(); !strings.Contains(line, "shard 1") || !strings.Contains(line, c.reason) {
			t.Fatalf("%s: log %q lacks the shard or the reason %q", c.mode, line, c.reason)
		}
		root := ring.Find(trace.String())
		if root == nil {
			t.Fatalf("%s: no trace record", c.mode)
		}
		var failed []obs.Event
		for _, e := range root.Snapshot().Events {
			if e.Kind == obs.EvShardResult && e.Err != "" {
				failed = append(failed, e)
			}
		}
		if len(failed) != 1 || failed[0].Shard != "1" || !strings.Contains(failed[0].Err, c.reason) {
			t.Fatalf("%s: failed shard_result events %+v, want one for shard 1 carrying %q", c.mode, failed, c.reason)
		}
	}

	// Healed, the same query is whole again: no damaged answer stuck anywhere.
	fault.mode.Store("")
	whole := querySkyline(t, coord, delta, http.StatusOK)
	all := map[int32][]float32{}
	for i := 0; i < ds.Len(); i++ {
		all[int32(i)] = ds.Point(i)
	}
	if whole.Partial || !equalIDs(whole.IDs, bruteSkyline(all, delta)) {
		t.Fatalf("after healing: partial=%v ids=%v", whole.Partial, whole.IDs)
	}
}
