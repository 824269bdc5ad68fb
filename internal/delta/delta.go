// Package delta maintains a built skycube under batched point inserts and
// deletes, serving lock-free MVCC snapshots while a writer applies batches
// and a background compactor folds the accumulated overlay into fresh bases.
//
// The paper's templates compute a skycube once; this package keeps that
// result alive as the dataset changes, by reusing the same machinery
// incrementally:
//
//   - An insert is a single-point MDMC task. The new point is routed
//     through the retained global pivots (stree.Tree.Route), filtered
//     against the static tree's path labels (FilterExternal) and refined
//     with exact dominance tests (RefineExternal), yielding its B_{p∉S}
//     exactly as a build-time point task would — in O(filter + refine)
//     instead of a full rebuild. The reverse direction (the insert
//     dominating existing points) reuses that mask: an insert sets bits only in
//     the subspaces it is itself a skyline member of (the lemma below), so
//     the ≈ 90 % of inserts that enter no skyline cost nothing more.
//   - A delete tombstones the victim and re-derives exactly the cuboids in
//     which it was a skyline member: removing a non-member of S_δ can never
//     change S_δ, because dominance chains terminate at members. For the
//     same reason (the delete lemma) an affected S_δ can only gain points a
//     member victim dominated in δ, so a batch re-tests those alone, in
//     three steps: one comparison per (member victim, point) opens the
//     subspaces in which the point just lost a dominator; the point then
//     meets the surviving members, each comparison closing every open
//     subspace it decides, as an MDMC point task does; and the few (point,
//     δ) pairs still open are cross-tested per δ. What is left clears its
//     bit δ. No cuboid is computed from scratch.
//   - Serving is MVCC: each applied batch publishes a new immutable
//     Snapshot layering a copy-on-write overlay over a shared immutable base
//     cube — tombstones, and the exact current B_{p∉S} of every point whose
//     mask is not the base's (the paper's HashCube shape, one mask per
//     point). The overlay is indexed by id in fixed-size chunks that epochs
//     share: a batch clones only the chunks it writes, so publishing an
//     epoch costs what the batch touched, not what the overlay holds.
//     Readers pin an epoch by loading a pointer and are never blocked; a
//     bounded history ring keeps recent epochs addressable.
//   - When the overlay exceeds a configurable fraction of the base, a
//     compaction folds the epoch into a new base over the live points and
//     resets the overlay. It runs no MDMC point task: the new base takes
//     every live point's mask as the epoch has it (exact, below), and only
//     S⁺ and the static tree over it are computed afresh.
//
// The one invariant every pass keeps and relies on: at a published epoch
// every live point's mask — its overlay entry if it has one, the base's row
// otherwise — is exact. An insert sets bits, a delete clears them, both on a
// clone of the mask, and an entry appears only when a bit changes.
//
// One subtlety deserves a name: the loose set. Points outside the extended
// skyline S⁺(P) are absent from the static tree, which is sound while some
// live point strictly dominates them in the full space: such an outsider is in
// no skyline and no pass visits it. Dominance chains end in skyline members,
// and s ≤ r < q gives s < q on every dimension, so (the promotion lemma) q has
// a live strict dominator exactly when a live member of the full-space skyline
// is one. A delete batch therefore (1) takes as vouchers only its victims that
// were members of that skyline, (2) sweeps the outsiders a word at a time for
// those a voucher strictly dominates, and (3) promotes one of them to "loose"
// only if no surviving old member — smallest coordinate sum first, first hit
// wins — strictly dominates it too. Judging by old members alone is
// conservative: a q whose last dominator turns loose in the same batch turns
// loose with it, and the delete pass's cross-test closes it. Future inserts
// must test against a loose point, since the tree no longer vouches for it,
// and once the delete pass has cleared a bit of one it is an overlay point
// like any other.
//
// The outsiders are a column store, built with each base: one lane per
// outsider in id order, holding its negated coordinates, so that q ≥ v on
// every dimension reads -q ≤ -v, the ≤ word sweep of internal/dom with the
// negated voucher as its probe. The strict check then runs only on the lanes
// that sweep leaves, and the candidates are judged by one block verdict
// against the kept members. Nothing is copied per batch: a victim's lane and a
// promoted point's lane are killed in place, and the next compaction builds a
// fresh store from the new base.
//
// The kept members are the front: the full-space skyline as a column store in
// (coordinate sum, id) order, built with each base and kept across epochs. A
// batch drops its vouchers before the walk, and afterwards the points that
// left the skyline, merging the ones that joined in order; the lanes stay
// packed, so a verdict reads exactly the members. The same order seeds the
// delete pass's survivors, strongest first. The other lists a batch reads are
// kept the same way, never rebuilt from the overlay: the live points beyond
// the tree (inserted since the base, or loose), those of them whose mask is
// open, and the ties — the members somewhere outside the full-space skyline,
// which a tie on a subspace's dimensions lets in.
//
// The lemma the insert path rests on is transitivity: if a live point r
// dominates the insert p in δ and p dominates q in δ, then r dominates q in
// δ. So wherever p's own mask has bit δ set, p can teach q nothing in δ: q's
// bit δ is already set — by r, or by the skyline member the chain above r
// ends in. A batch therefore runs three steps: phase A solves every
// insert forward against the pre-existing live points; phase B cross-tests
// only the inserts phase A left open (a closed one can gain nothing, and
// what it dominates a batch-mate in, its own dominator already does); and
// one reverse pass, parallel over targets, lets the inserts still open —
// the batch's skyline members — set bits in existing points' masks, each
// only in the subspaces it is a member of.
//
// The same chain shortens phase A's source list (the closed-source lemma). A
// live overlay point e whose mask has every bit set was, in each δ, dominated
// by a member s of the previous epoch's S_δ; whatever e dominates an insert
// in, s does too, and s is a live tree point or an overlay point with bit δ
// clear — a source either way, provided s survives the batch. So a batch in
// which no victim was a member anywhere tests its inserts only against the
// overlay points that are not closed (and the loose ones that have no mask
// yet); a batch with a member victim — which may have been the only member
// above e — tests them against all.
//
// The delete lemma is the same chain argument read the other way. A live q
// outside the old S_δ was dominated in δ by an old member; while one such
// member survives, q stays out. So after a batch the new S_δ is contained
// in (old S_δ minus the victims) ∪ {live q that a victim member of S_δ
// dominated in δ} ∪ (the batch's inserts that are members of δ), and a q of
// the middle set is in exactly when no surviving member, no member insert
// and no other q of that set dominates it in δ — a q that one of the first
// two dominates cannot be the only dominator of another.
package delta

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skycube/internal/bitset"
	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/hashcube"
	"skycube/internal/hetero"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/templates"
)

// DefaultCompactFraction is the auto-compaction trigger: a snapshot whose
// overlay entry count (Snapshot.OverlaySize) reaches this fraction of the
// base's point count, and at least minCompactOverlay, gets compacted when
// Options.AutoCompact is set.
const DefaultCompactFraction = 0.25

const (
	// history is how many recent snapshots stay addressable by epoch (At).
	history = 8
	// minCompactOverlay is the overlay size below which auto-compaction
	// never fires: it avoids compaction churn on tiny bases.
	minCompactOverlay = 64
	// maxBatchReplies caps the remembered batch replies; the oldest is
	// evicted first. Retries arrive within seconds, so thousands of batches
	// of slack is plenty.
	maxBatchReplies = 4096
)

// MaxBatchID is the longest batch id, in bytes, an updater remembers: the
// journal and the checkpoint store an id's length in 16 bits.
const MaxBatchID = math.MaxUint16

// Options configure an Updater.
type Options struct {
	// Threads is the CPU worker count for builds and batch application; 0
	// means all cores.
	Threads int
	// Devices is the pool the first base and a restored one are built on (a
	// compaction folds the epoch's masks and runs no point task); empty
	// means one CPU device over Threads cores.
	Devices []hetero.Device
	// AutoCompact runs compactions in a background goroutine when the
	// overlay crosses DefaultCompactFraction of the base. Without it,
	// compaction only happens via Compact.
	AutoCompact bool
	// Metrics, if non-nil, receives batch/epoch/compaction observations.
	Metrics *obs.DeltaMetrics
}

// Journal receives every accepted mutation and published epoch, in the
// exact order the updater will replay them after a crash (internal/wal
// implements it over an on-disk record log). Log* methods only append —
// they must not block on durability — while Commit blocks until every
// record appended so far is durable under the journal's sync policy.
//
// Ordering contract: LogInsert/LogDelete are called under the updater's
// buffer lock, and LogEpoch for a flush is called at the drain point while
// that same lock is held — so a mutation record sequenced before an epoch
// marker is exactly a mutation that epoch applied, and one sequenced after
// it is pending on the new epoch. Epoch markers are committed before the
// snapshot is published, so a served epoch can never be lost to a crash;
// the commit runs on its own goroutine while the epoch is computed, so
// Commit must be safe to call concurrently with the Log* methods.
type Journal interface {
	// LogInsert records an accepted insert: the id the updater assigned and
	// the point, stamped with the epoch current when it was buffered.
	LogInsert(epoch uint64, id int32, point []float32) error
	// LogDelete records an accepted delete (or same-batch insert
	// cancellation), stamped like LogInsert.
	LogDelete(epoch uint64, id int32) error
	// LogEpoch records an epoch advance — a flush (compact=false) applying
	// every mutation logged so far, or a compaction (compact=true) folding
	// the overlay — with the produced epoch and its live-point count.
	LogEpoch(compact bool, epoch uint64, live int) error
	// LogBatch records a remembered batch reply (RememberBatch), under the
	// buffer lock like LogInsert, so it follows the inserts it answers.
	LogBatch(id string, status int, body []byte) error
	// Commit blocks until all previously appended records are durable per
	// the journal's configured fsync policy.
	Commit() error
}

// Updater owns the mutable write side: it buffers inserts and deletes,
// applies them as batches, and publishes immutable Snapshots. All write
// methods are safe for concurrent use; reads go through Current/At and
// never contend with the writer.
type Updater struct {
	d       int
	threads int
	opt     Options

	// mu serialises batch application, compaction, and all fields below.
	mu sync.Mutex
	// vals/ids back every snapshot's dataset header: row i is point id i,
	// append-only, so published headers stay valid forever.
	vals []float32
	ids  []int32
	n    int
	// dead has bit id set for every id ever deleted (and every cancelled
	// pending insert); deadCount counts them.
	dead      []uint64
	deadCount int

	// Base-build artefacts, replaced wholesale by each compaction.
	mctx *templates.MDMCContext
	// treeID maps a tree sorted position to its logical id; treePos is the
	// inverse over the base's ids, -1 for an id not in the tree (and ids past
	// its end are not); posLeaf maps a sorted position to its leaf index.
	treeID  []int32
	treePos []int32
	posLeaf []int32
	// leafDead counts deleted points per tree leaf, for filter liveness.
	leafDead []int
	// outsiders is a column store of the base-era points outside S⁺ of the
	// base: one block, one lane per point in ascending id order (Rows[lane] is
	// the id), holding negated full-space coordinates. An alive lane still has
	// a live full-space strict dominator; a victim's or a promoted point's lane
	// is killed. The promoted ones turn loose: future inserts must test against
	// them directly.
	outsiders *data.BlockSet

	// The live points beyond the tree, kept by every batch in ascending id
	// order: extras are all of them — the points inserted since the base and
	// the loose ones; offTree those with an overlay mask that is not closed
	// (every bit set), the reverse pass's targets beyond the tree; bare the
	// loose ones with no overlay mask yet. Phase A's sources are extras, or
	// offTree and bare when no victim was a member anywhere.
	extras, offTree, bare []int32
	// front is the full-space skyline, the promotion walk's kept members and
	// the seed of the delete pass's survivors; ties are the live points,
	// ascending, that are skyline members somewhere but not in the full space
	// (a tie on a subspace's dimensions lets a full-space dominator leave them
	// in). Both are built with the base and kept by every batch.
	front front
	ties  []int32

	cur atomic.Pointer[Snapshot]

	histMu sync.Mutex
	hist   []*Snapshot

	// pendMu guards the not-yet-applied batch. Lock order: mu before pendMu.
	pendMu      sync.Mutex
	pendInserts []pendingInsert
	pendDeleted map[int32]struct{}
	nextID      int32
	// replies are the remembered batch replies (RememberBatch), also
	// guarded by pendMu; replyOrder is their FIFO eviction order.
	replies    map[string]BatchReply
	replyOrder []string
	// idSegs is the serving layer's id scheme (SetIDSegments), also guarded
	// by pendMu. The updater only checkpoints it.
	idSegs []IDSegment

	compactCh   chan struct{}
	closed      chan struct{}
	closeOnce   sync.Once
	wg          sync.WaitGroup
	compactions int64
	// cmps counts the point-pair coordinate comparisons phase B, the
	// reverse pass and the delete pass have made, a survivor word the delete
	// pass sweeps counting one per live lane (guarded by mu) — what a
	// flush costs beyond its forward solves; BenchmarkFlushInserts reports
	// it per insert, BenchmarkFlushDeletes per delete — and vouches, the words
	// the promotion walk sweeps (its workers add to it).
	cmps    int64
	vouches atomic.Int64
	// srcs counts the overlay points phase A took as dominance sources, one
	// list per flush with inserts (guarded by mu): the closed-source lemma's
	// tests read off it which list a batch took.
	srcs int64

	// journal, if non-nil, receives every accepted mutation and epoch
	// advance (AttachJournal). Plain field: it is attached once, before the
	// updater is shared across goroutines.
	journal Journal
}

type pendingInsert struct {
	id        int32
	point     []float32
	cancelled bool
}

// BatchReply is the remembered outcome of an idempotent (batch-tagged)
// insert, replayed verbatim — status included — when the same batch id
// arrives again. Body is never mutated once remembered.
type BatchReply struct {
	ID     string
	Status int
	Body   []byte
}

// NewUpdater builds the initial skycube over ds (epoch 1) and returns an
// updater maintaining it. Point ids are assigned by row: ds row i is id i,
// and inserts continue from ds.N. ds's values are copied; the caller may
// reuse it.
func NewUpdater(ds *data.Dataset, opt Options) *Updater {
	d := ds.Dims
	threads := opt.Threads
	if threads < 1 {
		threads = runtime.NumCPU()
	}
	u := &Updater{
		d:           d,
		threads:     threads,
		opt:         opt,
		vals:        append([]float32(nil), ds.Vals[:ds.N*d]...),
		ids:         make([]int32, ds.N),
		n:           ds.N,
		pendDeleted: make(map[int32]struct{}),
		nextID:      int32(ds.N),
		compactCh:   make(chan struct{}, 1),
		closed:      make(chan struct{}),
	}
	for i := range u.ids {
		u.ids[i] = int32(i)
	}
	u.mu.Lock()
	snap := u.buildBaseLocked(1, nil)
	u.publish(snap)
	u.mu.Unlock()
	opt.Metrics.Epoch(snap.epoch, snap.live, snap.OverlaySize())
	if opt.AutoCompact {
		u.StartAutoCompact()
	}
	return u
}

// PendingOp is one buffered (not yet flushed) insert in a RestoreState.
type PendingOp struct {
	ID int32
	// Point is the insert's coordinates.
	Point []float32
	// Cancelled marks an insert deleted within its own unflushed batch.
	Cancelled bool
}

// RestoreState is a consistent persistence image of an updater: the
// applied logical dataset at one epoch plus the buffered mutations that
// were pending when it was captured. CaptureState produces it and
// NewUpdaterFrom reconstructs an equivalent updater from it — the skycube
// itself is not serialized; it is rebuilt deterministically over the live
// points, into the base a compaction at the captured epoch would fold to.
type RestoreState struct {
	Dims  int
	Epoch uint64
	// Live is the live-point count at Epoch, used to verify the rebuild.
	Live int
	// Vals is the full logical dataset, row i = point id i, dead rows
	// included; NextID is len(Vals)/Dims plus the pending inserts.
	Vals []float32
	// Dead lists every dead id (deletes and cancelled inserts), ascending.
	Dead []int32
	// PendingInserts/PendingDeletes are the buffered batch at capture, in
	// buffer order.
	PendingInserts []PendingOp
	PendingDeletes []int32
	// Replies are the remembered batch replies, oldest first.
	Replies []BatchReply
	// IDSegments is the id scheme set by SetIDSegments, if any.
	IDSegments []IDSegment
}

// IDSegment maps one contiguous run of a cluster shard's local rows to
// global point ids: local rows r >= Start (up to the next segment's Start)
// carry global id Base + (r-Start)*Stride. A split seals its child with an
// extra segment, so rows inserted after the cutover mint from a fresh block.
type IDSegment struct {
	Start  int32 `json:"start"`
	Base   int32 `json:"base"`
	Stride int32 `json:"stride"`
}

// CaptureState returns a consistent RestoreState of the updater and, at
// the exact capture point — while both the apply lock and the buffer lock
// are held, so no journal record can be sequenced concurrently — calls
// rotate with the captured epoch (the WAL uses it to switch segments, so
// "records after the snapshot" is an exact boundary). The value slices
// alias the updater's append-only backing arrays and stay valid forever.
func (u *Updater) CaptureState(rotate func(epoch uint64) error) (RestoreState, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.pendMu.Lock()
	defer u.pendMu.Unlock()
	snap := u.cur.Load()
	nv := u.n * u.d
	st := RestoreState{
		Dims:  u.d,
		Epoch: snap.epoch,
		Live:  snap.live,
		Vals:  u.vals[:nv:nv],
		Dead:  make([]int32, 0, u.deadCount),
	}
	for w, m := range u.dead {
		for ; m != 0; m &= m - 1 {
			st.Dead = append(st.Dead, int32(w<<6+bits.TrailingZeros64(m)))
		}
	}
	if len(u.pendInserts) > 0 {
		st.PendingInserts = make([]PendingOp, len(u.pendInserts))
		for i, pi := range u.pendInserts {
			st.PendingInserts[i] = PendingOp{ID: pi.id, Point: pi.point, Cancelled: pi.cancelled}
		}
	}
	if len(u.pendDeleted) > 0 {
		st.PendingDeletes = make([]int32, 0, len(u.pendDeleted))
		for id := range u.pendDeleted {
			st.PendingDeletes = append(st.PendingDeletes, id)
		}
		slices.Sort(st.PendingDeletes)
	}
	if len(u.replyOrder) > 0 {
		st.Replies = make([]BatchReply, len(u.replyOrder))
		for i, id := range u.replyOrder {
			st.Replies[i] = u.replies[id]
		}
	}
	st.IDSegments = u.idSegs
	if rotate != nil {
		if err := rotate(st.Epoch); err != nil {
			return RestoreState{}, err
		}
	}
	return st, nil
}

// NewUpdaterFrom reconstructs an updater from a RestoreState: a full build
// over the state's live points published at the state's epoch (the base a
// compaction of the pre-crash updater folds to, which serves identical
// query results), with the pending batch re-buffered and the batch replies
// remembered. It verifies the rebuilt live count against the state and
// fails rather than serve a diverged cube. The background compactor is
// NOT started even when opt.AutoCompact is set — WAL replay must drive
// every epoch advance itself — call StartAutoCompact once replay is
// complete.
func NewUpdaterFrom(st RestoreState, opt Options) (*Updater, error) {
	if st.Dims <= 0 {
		return nil, fmt.Errorf("delta: restore state has %d dims", st.Dims)
	}
	if len(st.Vals)%st.Dims != 0 {
		return nil, fmt.Errorf("delta: restore state has %d values, not a multiple of %d dims",
			len(st.Vals), st.Dims)
	}
	if st.Epoch == 0 {
		return nil, fmt.Errorf("delta: restore state has epoch 0")
	}
	n := len(st.Vals) / st.Dims
	threads := opt.Threads
	if threads < 1 {
		threads = runtime.NumCPU()
	}
	u := &Updater{
		d:           st.Dims,
		threads:     threads,
		opt:         opt,
		vals:        append([]float32(nil), st.Vals...),
		ids:         make([]int32, n),
		n:           n,
		pendDeleted: make(map[int32]struct{}, len(st.PendingDeletes)),
		nextID:      int32(n),
		idSegs:      slices.Clone(st.IDSegments),
		compactCh:   make(chan struct{}, 1),
		closed:      make(chan struct{}),
	}
	for i := range u.ids {
		u.ids[i] = int32(i)
	}
	for _, id := range st.Dead {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("delta: restore state dead id %d out of range [0,%d)", id, n)
		}
		u.markDead(id)
	}
	for _, op := range st.PendingInserts {
		if len(op.Point) != st.Dims {
			return nil, fmt.Errorf("delta: restore state pending insert %d has %d dims, want %d",
				op.ID, len(op.Point), st.Dims)
		}
		if op.ID != u.nextID {
			return nil, fmt.Errorf("delta: restore state pending insert id %d, want %d", op.ID, u.nextID)
		}
		u.nextID++
		u.pendInserts = append(u.pendInserts, pendingInsert{
			id: op.ID, point: append([]float32(nil), op.Point...), cancelled: op.Cancelled,
		})
	}
	for _, id := range st.PendingDeletes {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("delta: restore state pending delete %d out of range [0,%d)", id, n)
		}
		u.pendDeleted[id] = struct{}{}
	}
	for _, rep := range st.Replies {
		u.rememberLocked(rep)
	}
	u.mu.Lock()
	snap := u.buildBaseLocked(st.Epoch, nil)
	if snap.live != st.Live {
		u.mu.Unlock()
		return nil, fmt.Errorf("delta: restored build has %d live points at epoch %d, checkpoint recorded %d",
			snap.live, st.Epoch, st.Live)
	}
	u.publish(snap)
	u.mu.Unlock()
	opt.Metrics.Epoch(snap.epoch, snap.live, snap.OverlaySize())
	return u, nil
}

// AttachJournal wires a journal into the updater. It must be called before
// the updater is shared across goroutines (i.e. before serving), and after
// any WAL replay — replayed mutations must not be re-journaled.
func (u *Updater) AttachJournal(j Journal) { u.journal = j }

// StartAutoCompact arms the compaction trigger and starts the background
// compactor goroutine (callers beware: call at most once). NewUpdater calls
// it itself when Options.AutoCompact is set; NewUpdaterFrom defers it to
// the caller so WAL replay is the only writer during recovery. An updater
// built without AutoCompact gains it here: a replica joining from a peer
// turns compaction on only once it stops replaying the peer's own
// compactions, possibly while it already serves.
func (u *Updater) StartAutoCompact() {
	u.mu.Lock()
	u.opt.AutoCompact = true
	u.mu.Unlock()
	u.wg.Add(1)
	go u.compactLoop()
}

// Close stops the background compactor. The current snapshot stays valid.
func (u *Updater) Close() {
	u.closeOnce.Do(func() { close(u.closed) })
	u.wg.Wait()
}

// Current returns the latest published snapshot.
func (u *Updater) Current() *Snapshot { return u.cur.Load() }

// At returns the snapshot at the given epoch if it is still in the history
// ring, or nil if it was evicted (or never existed).
func (u *Updater) At(epoch uint64) *Snapshot {
	u.histMu.Lock()
	defer u.histMu.Unlock()
	for _, s := range u.hist {
		if s.epoch == epoch {
			return s
		}
	}
	return nil
}

// Insert buffers one point for the next batch and returns its assigned id.
// The point is not visible until Flush applies the batch.
func (u *Updater) Insert(point []float32) (int32, error) {
	if len(point) != u.d {
		return 0, fmt.Errorf("delta: point has %d dims, want %d", len(point), u.d)
	}
	if err := data.CheckFiniteRow(point); err != nil {
		return 0, fmt.Errorf("delta: %v", err)
	}
	cp := append([]float32(nil), point...)
	u.pendMu.Lock()
	defer u.pendMu.Unlock()
	id := u.nextID
	u.nextID++
	u.pendInserts = append(u.pendInserts, pendingInsert{id: id, point: cp})
	if u.journal != nil {
		if err := u.journal.LogInsert(u.cur.Load().epoch, id, cp); err != nil {
			u.pendInserts = u.pendInserts[:len(u.pendInserts)-1]
			u.nextID--
			return 0, fmt.Errorf("delta: journal insert: %w", err)
		}
	}
	return id, nil
}

// Delete buffers the deletion of a live point (or cancels a same-batch
// pending insert). Validation is eager: unknown and already-deleted ids
// are rejected immediately.
func (u *Updater) Delete(id int32) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.pendMu.Lock()
	defer u.pendMu.Unlock()
	if id < 0 || id >= u.nextID {
		return fmt.Errorf("delta: unknown id %d", id)
	}
	if u.isDead(id) {
		return fmt.Errorf("delta: id %d already deleted", id)
	}
	if _, dup := u.pendDeleted[id]; dup {
		return fmt.Errorf("delta: id %d already pending deletion", id)
	}
	if id >= int32(u.n) {
		// A pending insert: cancel it in place.
		for i := range u.pendInserts {
			if u.pendInserts[i].id == id {
				if u.pendInserts[i].cancelled {
					return fmt.Errorf("delta: id %d already deleted", id)
				}
				if err := u.logDelete(id); err != nil {
					return err
				}
				u.pendInserts[i].cancelled = true
				return nil
			}
		}
		return fmt.Errorf("delta: unknown id %d", id)
	}
	if err := u.logDelete(id); err != nil {
		return err
	}
	u.pendDeleted[id] = struct{}{}
	return nil
}

// logDelete journals an accepted delete. Caller holds mu and pendMu and has
// validated the id; the buffer is only mutated if journaling succeeded.
func (u *Updater) logDelete(id int32) error {
	if u.journal == nil {
		return nil
	}
	if err := u.journal.LogDelete(u.cur.Load().epoch, id); err != nil {
		return fmt.Errorf("delta: journal delete: %w", err)
	}
	return nil
}

// Pending reports the buffered batch size: inserts (minus cancellations)
// and deletes awaiting the next Flush.
func (u *Updater) Pending() (inserts, deletes int) {
	u.pendMu.Lock()
	defer u.pendMu.Unlock()
	for _, pi := range u.pendInserts {
		if !pi.cancelled {
			inserts++
		}
	}
	return inserts, len(u.pendDeleted)
}

// NextID returns the id the next Insert will get. Cancelled pending
// inserts count: ids are positional.
func (u *Updater) NextID() int32 {
	u.pendMu.Lock()
	defer u.pendMu.Unlock()
	return u.nextID
}

// IDSegments returns the id scheme last set by SetIDSegments or restored
// from a RestoreState (nil when there is none).
func (u *Updater) IDSegments() []IDSegment {
	u.pendMu.Lock()
	defer u.pendMu.Unlock()
	return slices.Clone(u.idSegs)
}

// SetIDSegments replaces the carried id scheme. The updater never reads
// it; the next checkpoint (CaptureState) persists it.
func (u *Updater) SetIDSegments(segs []IDSegment) {
	u.pendMu.Lock()
	defer u.pendMu.Unlock()
	u.idSegs = slices.Clone(segs)
}

// LookupBatch returns the reply remembered for batch id, if any.
func (u *Updater) LookupBatch(id string) (BatchReply, bool) {
	u.pendMu.Lock()
	defer u.pendMu.Unlock()
	rep, ok := u.replies[id]
	return rep, ok
}

// RememberBatch remembers the reply to batch id, journaling it under the
// buffer lock so it is sequenced after the inserts it answers and is
// captured by the same checkpoint as they are. The reply is remembered
// even when journaling fails — a retry must still replay it rather than
// re-apply the batch — and the error reports that it will not survive a
// restart. Beyond maxBatchReplies the oldest reply is forgotten. An empty
// id, or one longer than MaxBatchID, is refused and not remembered.
func (u *Updater) RememberBatch(id string, status int, body []byte) error {
	if id == "" || len(id) > MaxBatchID {
		return fmt.Errorf("delta: batch id of %d bytes (want 1..%d)", len(id), MaxBatchID)
	}
	u.pendMu.Lock()
	defer u.pendMu.Unlock()
	u.rememberLocked(BatchReply{ID: id, Status: status, Body: body})
	if u.journal != nil {
		if err := u.journal.LogBatch(id, status, body); err != nil {
			return fmt.Errorf("delta: journal batch reply: %w", err)
		}
	}
	return nil
}

// rememberLocked records rep, replacing an earlier reply to the same batch
// in place. Caller holds pendMu (or owns the updater still).
func (u *Updater) rememberLocked(rep BatchReply) {
	if u.replies == nil {
		u.replies = make(map[string]BatchReply)
	}
	if _, known := u.replies[rep.ID]; !known {
		u.replyOrder = append(u.replyOrder, rep.ID)
	}
	u.replies[rep.ID] = rep
	for len(u.replyOrder) > maxBatchReplies {
		delete(u.replies, u.replyOrder[0])
		u.replyOrder = u.replyOrder[1:]
	}
}

// Flush applies the buffered batch and returns the snapshot serving it
// (the current snapshot when the batch was empty).
func (u *Updater) Flush() *Snapshot {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.applyLocked()
}

// Compact folds the current epoch into a new base over the live points
// (buildBaseLocked) and returns the fresh snapshot. The new base is the one a
// full build over the same points would make.
func (u *Updater) Compact() *Snapshot {
	u.mu.Lock()
	start := time.Now()
	prev := u.cur.Load()
	// As in applyLocked, the marker is journaled first and committed while
	// the base is folded, and the epoch is published only once it is
	// durable. Its fields are known up front: a compaction kills no point.
	// It drains nothing either, so mutation records on either side of the
	// marker stay pending, and replay folds wherever the marker sits.
	var c commit
	if u.journal != nil {
		if err := u.journal.LogEpoch(true, prev.epoch+1, prev.live); err == nil {
			c = u.startCommit()
		}
	}
	snap := u.buildBaseLocked(prev.epoch+1, prev)
	// A fold over the same live points changes no answer.
	snap.from, snap.changed = prev.epoch, bitset.New(mask.NumSubspaces(u.d))
	c.wait()
	u.publish(snap)
	u.mu.Unlock()
	atomic.AddInt64(&u.compactions, 1)
	u.opt.Metrics.Compaction(time.Since(start), snap.base.points)
	u.opt.Metrics.Epoch(snap.epoch, snap.live, snap.OverlaySize())
	return snap
}

// Stats is a point-in-time view of the updater for diagnostics endpoints.
type Stats struct {
	Epoch          uint64 `json:"epoch"`
	Live           int    `json:"live"`
	Dead           int    `json:"dead"`
	Overlay        int    `json:"overlay"`
	BasePoints     int    `json:"base_points"`
	PendingInserts int    `json:"pending_inserts"`
	PendingDeletes int    `json:"pending_deletes"`
	Compactions    int64  `json:"compactions"`
}

// Stats returns current counters. Dead counts against the current base
// generation's view (all-time deletes including cancelled inserts).
func (u *Updater) Stats() Stats {
	snap := u.cur.Load()
	ins, del := u.Pending()
	return Stats{
		Epoch:          snap.epoch,
		Live:           snap.live,
		Dead:           snap.ds.N - snap.live,
		Overlay:        snap.OverlaySize(),
		BasePoints:     snap.base.points,
		PendingInserts: ins,
		PendingDeletes: del,
		Compactions:    atomic.LoadInt64(&u.compactions),
	}
}

// ---- write path ----

// datasetHeader returns an immutable view of the logical dataset: row i is
// point id i, dead rows included. Appends to u.vals never disturb already
// published headers (old epochs keep the old backing array or a disjoint
// prefix of the same one).
func (u *Updater) datasetHeader() *data.Dataset {
	nv := u.n * u.d
	return &data.Dataset{Dims: u.d, N: u.n, Vals: u.vals[:nv:nv], IDs: u.ids[:u.n:u.n]}
}

func (u *Updater) point(id int32) []float32 {
	return u.vals[int(id)*u.d : (int(id)+1)*u.d]
}

func (u *Updater) liveRows() []int32 {
	out := make([]int32, 0, u.n-u.deadCount)
	for i := int32(0); i < int32(u.n); i++ {
		if !u.isDead(i) {
			out = append(out, i)
		}
	}
	return out
}

// isDead reports whether id was deleted (or cancelled while pending).
func (u *Updater) isDead(id int32) bool {
	w := int(id) >> 6
	return w < len(u.dead) && u.dead[w]&(1<<uint(id&63)) != 0
}

// markDead records id as deleted.
func (u *Updater) markDead(id int32) {
	w := int(id) >> 6
	for len(u.dead) <= w {
		u.dead = append(u.dead, 0)
	}
	if u.dead[w]&(1<<uint(id&63)) == 0 {
		u.dead[w] |= 1 << uint(id&63)
		u.deadCount++
	}
}

// posOf returns id's sorted position in the static tree, -1 if the tree
// does not hold it.
func (u *Updater) posOf(id int32) int {
	if int(id) >= len(u.treePos) {
		return -1
	}
	return int(u.treePos[id])
}

func (u *Updater) devices() []hetero.Device {
	if len(u.opt.Devices) > 0 {
		return u.opt.Devices
	}
	return []hetero.Device{&hetero.CPUDevice{Threads: u.threads}}
}

// buildBaseLocked makes a new base over the live points and resets all
// base-generation state (tree routing tables, liveness counters, the
// outsiders, the lists beyond the tree, the front and the ties). With prev
// nil — the first base, a restore — it runs the MDMC build across the
// configured devices. A compaction passes the epoch it folds instead, whose
// every live mask is exact: the new base takes those masks, and S⁺ is the
// extended skyline of the live tree points and the extras alone, since every
// other live point is an alive outsider lane, which the promotion lemma
// gives a live strict full-space dominator among them. Caller holds u.mu.
func (u *Updater) buildBaseLocked(epoch uint64, prev *Snapshot) *Snapshot {
	header := u.datasetHeader()
	live := u.liveRows()
	// The fold's candidates are read before the lists beyond the tree reset.
	var cand []int32
	if prev != nil {
		cand = u.foldRows(live)
	}
	u.extras, u.offTree, u.bare, u.ties = nil, nil, nil, nil
	u.front = front{cols: data.NewBlockSet(u.d, data.DefaultBlockSize)}
	if len(live) == 0 {
		u.mctx = &templates.MDMCContext{D: u.d, MaxLevel: u.d, Cube: hashcube.New(u.d)}
		u.treeID, u.treePos, u.posLeaf, u.leafDead = nil, nil, nil, nil
		u.outsiders = data.NewBlockSet(u.d, 0)
		return &Snapshot{
			epoch: epoch, d: u.d, ds: header,
			base: &baseCube{h: u.mctx.Cube, ids: []int32{}},
		}
	}
	sub := header
	identity := len(live) == u.n
	if !identity {
		intRows := make([]int, len(live))
		for i, r := range live {
			intRows[i] = int(r)
		}
		sub = header.Subset(intRows)
	}
	var ctx *templates.MDMCContext
	base := &baseCube{points: sub.N}
	if prev == nil {
		ctx = templates.PrepareMDMC(sub, u.threads, 3, 0)
		hetero.MDMCPrepared(ctx, u.devices(), hetero.Options{})
		base.masks, base.stride = ctx.Cube.RowMasks(sub.N)
	} else {
		ctx = templates.PrepareMDMCTraced(sub, cand, u.threads, 3, 0, nil)
		base.masks, base.stride = fold(prev, sub.IDs, ctx)
	}
	base.h = ctx.Cube
	if !identity {
		base.ids = sub.IDs
		base.row = make([]int32, u.n)
		for id := range base.row {
			base.row[id] = -1
		}
		for r, id := range sub.IDs {
			base.row[id] = int32(r)
		}
	}

	tree := ctx.Tree
	u.mctx = ctx
	u.treeID = tree.Data.IDs
	u.treePos = make([]int32, u.n)
	for id := range u.treePos {
		u.treePos[id] = -1
	}
	for pos, id := range u.treeID {
		u.treePos[id] = int32(pos)
	}
	u.posLeaf = make([]int32, tree.Data.N)
	for li, lf := range tree.Leaves {
		for pos := lf.Start; pos < lf.End; pos++ {
			u.posLeaf[pos] = int32(li)
		}
	}
	u.leafDead = make([]int, len(tree.Leaves))
	// The rows between those of ExtRows, which ascends as sub.IDs does. The
	// lanes carry no sum order: no scan of them stops early.
	u.outsiders = data.NewBlockSet(u.d, sub.N-len(ctx.ExtRows))
	neg := make([]float32, u.d)
	ext := ctx.ExtRows
	for r, id := range sub.IDs {
		if len(ext) > 0 && ext[0] == int32(r) {
			ext = ext[1:]
			continue
		}
		for j, x := range u.point(id) {
			neg[j] = -x
		}
		u.outsiders.Append(neg, id, 0)
	}

	// The front and the ties, read off the base's masks.
	var front []int32
	for r, id := range sub.IDs {
		switch u.classOf(base.mask(int32(r))) {
		case inFront:
			front = append(front, id)
		case tied:
			u.ties = append(u.ties, id)
		}
	}
	u.mergeFront(nil, front)
	u.kept()

	return &Snapshot{epoch: epoch, d: u.d, ds: header, base: base, live: len(live)}
}

// foldRows returns the rows of live (the live ids, ascending) that a
// compaction's extended skyline runs over: the live tree points and the
// extras — the points inserted since the base and the loose ones.
func (u *Updater) foldRows(live []int32) []int32 {
	rows := make([]int32, 0, len(u.treeID)+len(u.extras))
	extras := u.extras
	for r, id := range live {
		if len(extras) > 0 && extras[0] == id {
			extras = extras[1:]
		} else if u.posOf(id) < 0 {
			continue
		}
		rows = append(rows, int32(r))
	}
	return rows
}

// fold returns the masks of the points ids, by row, as prev has them — as
// HashCube.RowMasks lays them out — and inserts those of ctx's S⁺ rows into
// ctx's cube, which is then the cube an MDMC run over ctx would fill: a
// point's mask at a published epoch is exact.
func fold(prev *Snapshot, ids []int32, ctx *templates.MDMCContext) (masks []uint64, stride int) {
	stride = ctx.Cube.Stride()
	masks = make([]uint64, len(ids)*stride)
	for r, id := range ids {
		copy(masks[r*stride:], prev.mask(id))
	}
	ext := make([]uint64, len(ctx.ExtRows)*stride)
	for i, r := range ctx.ExtRows {
		copy(ext[i*stride:], masks[int(r)*stride:][:stride])
	}
	ctx.Cube.Insert(ctx.ExtRows, ext)
	return masks, stride
}

// applyLocked applies the buffered batch: tombstone deletes first, then
// solve inserts against the post-delete live set and let them set bits in
// the points they dominate, then clear bits in the points the victims
// shielded — so every live point's mask is exact at the new epoch. Caller
// holds u.mu.
func (u *Updater) applyLocked() *Snapshot {
	prev := u.cur.Load()
	u.pendMu.Lock()
	inserts := u.pendInserts
	deleted := u.pendDeleted
	if len(inserts) == 0 && len(deleted) == 0 {
		u.pendMu.Unlock()
		return prev
	}
	// Journal the flush marker at the drain point, while pendMu is still
	// held: the records sequenced before this marker are exactly the
	// mutations this epoch applies (an insert racing this flush lands after
	// the marker and stays pending on replay). On journal failure the batch
	// is left buffered and the flush is a no-op — the journal's sticky error
	// reaches the client at the serving layer's ack. The marker's commit
	// starts here and runs while the epoch is computed.
	var c commit
	if u.journal != nil {
		liveIns := 0
		for _, pi := range inserts {
			if !pi.cancelled {
				liveIns++
			}
		}
		if err := u.journal.LogEpoch(false, prev.epoch+1, prev.live+liveIns-len(deleted)); err != nil {
			u.pendMu.Unlock()
			return prev
		}
		c = u.startCommit()
	}
	u.pendInserts = nil
	u.pendDeleted = make(map[int32]struct{})
	u.pendMu.Unlock()
	start := time.Now()

	victims := make([]int32, 0, len(deleted))
	for id := range deleted {
		victims = append(victims, id)
	}
	slices.Sort(victims)

	// Cuboids where a victim was a member must be re-derived; everywhere
	// else the delete is invisible (non-members never shield anything).
	// shields are the victims that were members somewhere, vouchers those of
	// the full-space skyline (the last entry of an ascending membership).
	affected := bitset.New(mask.NumSubspaces(u.d))
	var shields []shield
	var vouchers []int32
	for _, v := range victims {
		member := prev.Membership(v)
		if len(member) == 0 {
			continue
		}
		for _, delta := range member {
			affected.Set(int(delta) - 1)
		}
		shields = append(shields, shield{point: u.point(v), member: member})
		if member[len(member)-1] == mask.Full(u.d) {
			vouchers = append(vouchers, v)
		}
	}

	// The new epoch starts from prev's overlay, every chunk shared; a pass
	// that changes a point's mask puts a changed clone in its slot. Victims
	// get a tombstone: it says all there is to say about one.
	snap := &Snapshot{
		epoch: prev.epoch + 1, d: u.d, base: prev.base, ov: prev.ov.next(),
	}
	// Tombstone victims in writer state, then promote the outsiders they
	// orphaned.
	for _, v := range victims {
		u.markDead(v)
		if pos := u.posOf(v); pos >= 0 {
			u.leafDead[u.posLeaf[pos]]++
		}
		u.killOutsider(v)
		snap.ov.put(snap.epoch, v, tombstone)
	}
	u.extras = without(u.extras, victims)
	u.offTree = without(u.offTree, victims)
	u.bare = without(u.bare, victims)
	u.ties = without(u.ties, victims)
	u.mergeFront(vouchers, nil)
	promoted := u.promoteOrphans(vouchers)
	u.extras = with(u.extras, promoted)
	u.bare = with(u.bare, promoted)

	// Append all insert rows (cancelled ones too — ids are positional) and
	// collect the live ones.
	lives := make([]pendingInsert, 0, len(inserts))
	for _, pi := range inserts {
		u.vals = append(u.vals, pi.point...)
		u.ids = append(u.ids, pi.id)
		u.n++
		if pi.cancelled {
			u.markDead(pi.id)
			continue
		}
		lives = append(lives, pi)
	}
	snap.ds = u.datasetHeader()
	snap.live = prev.live + len(lives) - len(victims)

	// Phase A: each live insert's B_{p∉S} against the pre-existing live
	// points — the live tree points and the live points beyond the tree:
	// all of those when a member victim leaves, otherwise only the ones not
	// closed (the closed-source lemma). Phase B: the batch's own inserts
	// against each other. What is left open is a skyline member somewhere,
	// and only those — and only in those subspaces — can teach an existing
	// point anything (the package comment's insert lemma).
	sources := u.extras
	if len(shields) == 0 {
		sources = mergeIDs(u.offTree, u.bare)
	}
	results := u.solveInserts(lives, sources)
	if len(lives) > 0 {
		u.srcs += int64(len(sources))
	}
	members := u.crossTest(lives, results)
	for i, pi := range lives {
		snap.ov.put(snap.epoch, pi.id, results[i])
	}
	// The subspaces whose skyline the epoch changes are exactly those a
	// member victim leaves and those a member insert enters: the reverse pass
	// evicts a point only where a member insert is a member itself, the delete
	// pass clears bits only in affected, and a promotion changes no skyline.
	snap.from, snap.changed = prev.epoch, affected.Clone()
	for _, m := range members {
		snap.changed.OrNot(results[m])
	}
	// The live tree points are targets of both passes below (the delete
	// pass's also the extras, which the spare capacity is for); a batch with
	// neither member inserts nor member victims runs neither.
	var liveTree []int32
	if len(members) > 0 || len(shields) > 0 {
		liveTree = make([]int32, 0, len(u.treeID)+len(u.extras))
		for _, id := range u.treeID {
			if !u.isDead(id) {
				liveTree = append(liveTree, id)
			}
		}
	}
	grown := u.reversePass(snap, lives, results, members, liveTree)

	// With tombstones, insert masks and the reverse pass in it, snap's masks
	// name the surviving members of an affected cuboid. What is missing is
	// the pre-existing points the victims shielded (the delete lemma): each
	// clears its bit δ.
	var cleared []int32
	if len(shields) > 0 {
		inserted := make([]int32, len(members))
		for i, m := range members {
			inserted[i] = lives[m].id
		}
		leavers := slices.DeleteFunc(slices.Clone(grown), func(id int32) bool {
			return u.classOf(prev.mask(id)) != inFront || u.classOf(snap.mask(id)) == inFront
		})
		survivors := u.survivors(snap, affected, leavers, inserted)
		fresh := make(map[int32]*bitset.Set)
		for delta, ids := range u.resolveDeletes(shields, append(liveTree, u.extras...), survivors) {
			for _, id := range ids {
				m := fresh[id]
				if m == nil {
					m = bitset.View(snap.mask(id), affected.Len()).Clone()
					fresh[id] = m
					snap.ov.put(snap.epoch, id, m)
					cleared = append(cleared, id)
				}
				m.Clear(int(delta) - 1)
			}
		}
	}
	u.settle(prev, snap, append(grown, cleared...), lives)

	// The epoch marker is durable before the epoch is published: once an
	// epoch is served it must survive a crash, or recovery could reuse the
	// number for different content and poison epoch-keyed caches.
	c.wait()
	u.publish(snap)
	u.opt.Metrics.Batch(len(lives), len(members), len(victims), affected.Count(), len(promoted), time.Since(start))
	u.opt.Metrics.Epoch(snap.epoch, snap.live, snap.OverlaySize())
	u.maybeCompact(snap)
	return snap
}

// commit is an epoch marker's durable commit in flight: closed once the
// journal's Commit returns. The nil commit is the one an updater without a
// journal never started, and waits for nothing.
type commit chan struct{}

// startCommit commits every record journaled so far on its own goroutine,
// so that a flush or compaction computes its epoch while the marker it
// journaled syncs. Without a journal (an in-memory updater, or WAL replay
// before AttachJournal) it starts nothing. Caller holds u.mu. A commit
// failure still publishes (writer state is already mutated); the journal's
// sticky error reaches the client at the serving layer's ack.
func (u *Updater) startCommit() commit {
	if u.journal == nil {
		return nil
	}
	c := make(commit)
	go func() {
		defer close(c)
		_ = u.journal.Commit()
	}()
	return c
}

// wait blocks until the commit has returned.
func (c commit) wait() {
	if c != nil {
		<-c
	}
}

// class is where a live point's mask puts it among the lists a batch keeps.
type class uint8

const (
	// closed: every bit set, or not a live point at all.
	closed class = iota
	// tied: a member somewhere, but not of the full-space skyline.
	tied
	// inFront: a member of the full-space skyline.
	inFront
)

// classOf classifies the mask words of a point (nil for none).
func (u *Updater) classOf(words []uint64) class {
	if words == nil {
		return closed
	}
	full := mask.NumSubspaces(u.d) - 1
	if words[full>>6]&(1<<uint(full&63)) == 0 {
		return inFront
	}
	if bitset.View(words, full+1).All() {
		return closed
	}
	return tied
}

// settle brings the lists beyond the tree, the ties and the front up to
// snap: changed are the pre-existing points whose masks the batch changed
// (duplicates allowed), lives the batch's live inserts, which go at the end
// of every list kept in id order.
func (u *Updater) settle(prev, snap *Snapshot, changed []int32, lives []pendingInsert) {
	slices.Sort(changed)
	changed = slices.Compact(changed)
	var left, joined []int32
	for _, id := range changed {
		was, now := u.classOf(prev.mask(id)), u.classOf(snap.mask(id))
		if was != now {
			switch was {
			case inFront:
				left = append(left, id)
			case tied:
				u.ties = without(u.ties, []int32{id})
			}
			switch now {
			case inFront:
				joined = append(joined, id)
			case tied:
				u.ties = with(u.ties, []int32{id})
			}
		}
		if u.posOf(id) >= 0 {
			continue
		}
		// A point beyond the tree now has a mask; open is offTree's test.
		wasOpen := prev.ov.slot(id) != nil && was != closed
		if open := now != closed; open != wasOpen {
			if open {
				u.offTree = with(u.offTree, []int32{id})
			} else {
				u.offTree = without(u.offTree, []int32{id})
			}
		}
		u.bare = without(u.bare, []int32{id})
	}
	for _, pi := range lives {
		u.extras = append(u.extras, pi.id)
		switch u.classOf(snap.mask(pi.id)) {
		case inFront:
			joined = append(joined, pi.id)
			u.offTree = append(u.offTree, pi.id)
		case tied:
			u.ties = append(u.ties, pi.id)
			u.offTree = append(u.offTree, pi.id)
		}
	}
	u.mergeFront(left, joined)
}

// front is the full-space skyline in (coordinate sum, id) order, kept
// across epochs: ids and sums are its columns, and cols is the column store
// of the members' coordinates the promotion walk sweeps — packed, so a
// verdict reads exactly the members — rebuilt from them only when a walk
// runs after the front changed.
type front struct {
	ids   []int32
	sums  []float32
	cols  *data.BlockSet
	stale bool
}

// mergeFront drops the ids of gone from the front and merges join in, in
// place: each is found by binary search on (sum, id), and the runs between
// them move in one copy.
func (u *Updater) mergeFront(gone, join []int32) {
	if len(gone) == 0 && len(join) == 0 {
		return
	}
	f := &u.front
	var at []int
	for _, id := range gone {
		if i := f.search(len(f.ids), u.sum(id), id); i < len(f.ids) && f.ids[i] == id {
			at = append(at, i)
		}
	}
	if len(at) > 0 {
		slices.Sort(at)
		n, w := len(f.ids), at[0]
		for k, i := range at {
			end := n
			if k+1 < len(at) {
				end = at[k+1]
			}
			copy(f.ids[w:], f.ids[i+1:end])
			copy(f.sums[w:], f.sums[i+1:end])
			w += end - i - 1
		}
		f.ids, f.sums = f.ids[:w], f.sums[:w]
	}
	join = u.strongestFirst(join)
	hi := len(f.ids)
	f.ids = slices.Grow(f.ids, len(join))[:hi+len(join)]
	f.sums = slices.Grow(f.sums, len(join))[:hi+len(join)]
	for j := len(join) - 1; j >= 0; j-- {
		sum := u.sum(join[j])
		i := f.search(hi, sum, join[j])
		copy(f.ids[i+j+1:], f.ids[i:hi])
		copy(f.sums[i+j+1:], f.sums[i:hi])
		f.ids[i+j], f.sums[i+j] = join[j], sum
		hi = i
	}
	f.stale = true
}

// search returns the first of the front's first n lanes at or after (sum,
// id) in the front's order.
func (f *front) search(n int, sum float32, id int32) int {
	return sort.Search(n, func(i int) bool { return !sumLess(f.sums[i], f.ids[i], sum, id) })
}

// kept returns the front's column store, rebuilt if the front changed since
// it was last read.
func (u *Updater) kept() *data.BlockSet {
	f := &u.front
	if f.stale {
		f.cols.Reset()
		for i, id := range f.ids {
			f.cols.Append(u.point(id), id, f.sums[i])
		}
		f.stale = false
	}
	return f.cols
}

// survivors lists, strongest first, the points whose masks in snap — the
// epoch in the making before the delete pass — have an affected bit clear:
// the front's members still in it, merged with the ties, the front's
// leavers and the member inserts that qualify.
func (u *Updater) survivors(snap *Snapshot, affected *bitset.Set, leavers, inserted []int32) []int32 {
	aff := affected.Words64()
	open := func(words []uint64) bool {
		for i, w := range aff {
			if w&^words[i] != 0 {
				return true
			}
		}
		return false
	}
	var rest []int32
	for _, ids := range [][]int32{u.ties, leavers, inserted} {
		for _, id := range ids {
			if open(snap.mask(id)) {
				rest = append(rest, id)
			}
		}
	}
	rest = u.strongestFirst(rest)
	out := make([]int32, 0, len(u.front.ids)+len(rest))
	for i, id := range u.front.ids {
		if words := snap.mask(id); u.classOf(words) != inFront || !open(words) {
			continue
		}
		for len(rest) > 0 && sumLess(u.sum(rest[0]), rest[0], u.front.sums[i], id) {
			out, rest = append(out, rest[0]), rest[1:]
		}
		out = append(out, id)
	}
	return append(out, rest...)
}

// promoteOrphans turns loose the outsiders the batch orphaned (the package
// comment's promotion lemma): those a voucher strictly dominates and no
// surviving member of the full-space skyline does. It returns them in id
// order.
func (u *Updater) promoteOrphans(vouchers []int32) []int32 {
	if len(vouchers) == 0 || len(u.outsiders.Blocks) == 0 {
		return nil
	}
	b := u.outsiders.Blocks[0]
	var promoted []int32
	for w, m := range u.orphans(b, vouchers, u.kept()) {
		for ; m != 0; m &= m - 1 {
			lane := w<<6 + bits.TrailingZeros64(m)
			b.Kill(lane)
			promoted = append(promoted, b.Rows[lane])
		}
	}
	return promoted
}

// orphans is the promotion walk over the outsider block b, one bit per lane:
// the alive lanes some voucher is strictly below on every dimension and no
// lane of kept is. Negated, a voucher v is a probe of the ≤ sweep that picks
// the lanes at or above v everywhere — negation is exact, and CheckFiniteRow
// keeps NaN out of every insert — and the strict check then runs on those
// lanes only. Workers take the words in chunks and judge their candidates
// against kept, strongest first; each adds the words it swept to vouches.
func (u *Updater) orphans(b *data.Block, vouchers []int32, kept *data.BlockSet) []uint64 {
	probes := make([]float32, 0, len(vouchers)*u.d)
	for _, v := range vouchers {
		for _, x := range u.point(v) {
			probes = append(probes, -x)
		}
	}
	orphan := make([]uint64, (b.N+63)>>6)
	u.eachChunk(len(orphan), passChunk/64, func(claim func() (int, int)) {
		var t dom.KernelTally
		for lo, hi := claim(); lo < hi; lo, hi = claim() {
			for w := lo; w < hi; w++ {
				var cand uint64
				for k := 0; k < len(probes); k += u.d {
					cand |= dom.StrictWord(b, w, probes[k:k+u.d])
				}
				t.Sweeps += uint64(len(vouchers))
				for ; cand != 0; cand &= cand - 1 {
					i := bits.TrailingZeros64(cand)
					if dom.BlocksVerdict(kept, u.point(b.Rows[w<<6+i]), &t) != dom.StrictlyDominated {
						orphan[w] |= 1 << uint(i)
					}
				}
			}
		}
		u.vouches.Add(int64(t.Sweeps))
		t.Flush()
	})
	return orphan
}

// killOutsider kills the outsider lane of id, if it has one.
func (u *Updater) killOutsider(id int32) {
	if len(u.outsiders.Blocks) == 0 {
		return
	}
	b := u.outsiders.Blocks[0]
	if lane, ok := slices.BinarySearch(b.Rows[:b.N], id); ok {
		b.Kill(lane)
	}
}

// solveInserts is phase A: each live insert solved as a single-point MDMC
// task — filter + refine against the live tree points, then exact DTs
// against sources, the live points beyond the tree — in parallel. Workers
// only read writer state (frozen for the batch). The returned masks do not
// yet know about batch-mates.
func (u *Updater) solveInserts(lives []pendingInsert, sources []int32) []*bitset.Set {
	results := make([]*bitset.Set, len(lives))
	if len(lives) == 0 {
		return results
	}
	tree := u.mctx.Tree
	var leafAlive func(li int) bool
	var alive func(pos int) bool
	if tree != nil && u.deadCount > 0 {
		leafAlive = func(li int) bool { return u.leafDead[li] < tree.Leaves[li].Len() }
		alive = func(pos int) bool { return !u.isDead(u.treeID[pos]) }
	}
	full := mask.Full(u.d)
	var next int64
	var wg sync.WaitGroup
	for w := min(u.threads, len(lives)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sol := templates.NewSolution(u.mctx)
			defer sol.FlushKernelTally()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(lives) {
					return
				}
				p := lives[i].point
				sol.Reset()
				if tree != nil {
					medP, quartP, octP := tree.Route(p)
					sol.FilterExternal(medP, quartP, octP, u.mctx.FilterLevel, leafAlive)
					if sol.Remaining() > 0 {
						sol.RefineExternal(p, medP, quartP, octP, true, alive)
					}
				}
				for _, id := range sources {
					if sol.Remaining() == 0 {
						break
					}
					sol.ApplyDT(u.point(id), p, full, true)
				}
				results[i] = sol.NotInS().Clone()
			}
		}()
	}
	wg.Wait()
	return results
}

// crossTest is phase B: one coordinate comparison per pair of inserts that
// phase A left open, folded into both masks. An insert phase A closed can
// gain no bit, and whatever it dominates a batch-mate in, its own dominator
// — a pre-existing live point — already did in phase A. It returns the
// indices still open afterwards: the batch's skyline members.
func (u *Updater) crossTest(lives []pendingInsert, results []*bitset.Set) (members []int) {
	var open []int
	for i, m := range results {
		if !m.All() {
			open = append(open, i)
		}
	}
	full := mask.Full(u.d)
	for x, i := range open {
		for _, j := range open[x+1:] {
			r := dom.Compare(lives[i].point, lives[j].point)
			teach(results[j], results[i], r.Lt, r.Eq)
			teach(results[i], results[j], full&^r.Leq(), r.Eq)
		}
	}
	u.cmps += int64(len(open)) * int64(len(open)-1) / 2
	for _, i := range open {
		if !results[i].All() {
			members = append(members, i)
		}
	}
	return members
}

// passChunk is how many targets a worker of the reverse pass or of the
// delete pass claims at a time; the promotion walk claims the words of as many
// outsiders.
const passChunk = 256

// eachChunk runs work on up to u.threads goroutines and waits for them. A
// worker draws ranges [lo, hi) of 0..n, chunk at a time, from claim until it
// gets an empty one.
func (u *Updater) eachChunk(n, chunk int, work func(claim func() (lo, hi int))) {
	var next atomic.Int64
	claim := func() (int, int) {
		hi := int(next.Add(int64(chunk)))
		return min(hi-chunk, n), min(hi, n)
	}
	var wg sync.WaitGroup
	for w := min(u.threads, (n+chunk-1)/chunk); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(claim)
		}()
	}
	wg.Wait()
}

// reversePass sets, in the masks of existing points, the bits the batch's
// member inserts dominate them in: per target — live tree points, then
// offTree — it collects what the members teach it into a per-worker scratch
// set and puts a grown clone of the target's mask into snap only when that
// adds a bit. Workers only read snap; the grown masks are stored afterwards,
// and their ids returned.
func (u *Updater) reversePass(snap *Snapshot, lives []pendingInsert, results []*bitset.Set,
	members []int, liveTree []int32) []int32 {
	if len(members) == 0 {
		return nil
	}
	nTree := len(liveTree)
	targets := append(liveTree[:nTree:nTree], u.offTree...)
	grown := make([]*bitset.Set, len(targets))
	u.eachChunk(len(targets), passChunk, func(claim func() (int, int)) {
		scratch := bitset.New(mask.NumSubspaces(u.d))
		for lo, hi := claim(); lo < hi; lo, hi = claim() {
			for t := lo; t < hi; t++ {
				q := u.point(targets[t])
				scratch.Reset()
				for _, i := range members {
					r := dom.Compare(lives[i].point, q)
					teach(scratch, results[i], r.Lt, r.Eq)
				}
				if scratch.Empty() {
					continue
				}
				cur := bitset.View(snap.mask(targets[t]), scratch.Len())
				if scratch.AndNot(cur); scratch.Empty() {
					continue
				}
				grown[t] = scratch.Clone()
				grown[t].Or(cur)
			}
		}
	})
	u.cmps += int64(len(members)) * int64(len(targets))
	var ids []int32
	for t, m := range grown {
		if m != nil {
			snap.ov.put(snap.epoch, targets[t], m)
			ids = append(ids, targets[t])
		}
	}
	return ids
}

// shield is a victim that was a skyline member somewhere: its point and the
// subspaces it was a member of.
type shield struct {
	point  []float32
	member []mask.Mask
}

// resolveDeletes finds the pre-existing points that enter an affected
// cuboid because the batch deleted every member that dominated them there
// (the package comment's delete lemma). survivors (Updater.survivors) are
// the points of the epoch in the making with an affected bit clear — kept
// old members and the batch's member inserts — strongest first.
//
// One pass, parallel over the points that can be members at all, targets —
// live tree points and extras; an outsider still has a live full-space
// strict dominator and is in no skyline. Per point q, one comparison per
// shield yields q's open set: the affected δ in which a member victim
// dominated it. q then sweeps the survivors — the union of those skylines,
// one column store in their order — a word at a time: one RelWord gives, per
// dimension, the survivors ≤ q and < q, and an open δ closes when some lane
// is in the first on every dimension of δ and in the second on one. The sweep
// ends after the word that closes the last. A δ closes exactly when some
// survivor dominates q in it, whichever word holds that survivor, so the
// order only decides how soon the sweep ends. The (q, δ) still open were
// dominated in δ by victims alone among the old members, so only each other
// can keep them out: they are cross-tested per δ, and what remains is
// returned.
func (u *Updater) resolveDeletes(shields []shield, targets, survivors []int32) map[mask.Mask][]int32 {
	cols := data.GetBlockSet(u.d, data.DefaultBlockSize)
	defer data.PutBlockSet(cols)
	for _, s := range survivors {
		cols.Append(u.point(s), s, u.sum(s))
	}
	var mu sync.Mutex
	open := make(map[mask.Mask][]int32)
	var cmps int64
	u.eachChunk(len(targets), passChunk, func(claim func() (int, int)) {
		// closed has a clear bit per open subspace of the point at hand: the
		// shields clear them; deltas lists them for the survivor sweep.
		closed := bitset.New(mask.NumSubspaces(u.d))
		leq, lt := make([]uint64, u.d), make([]uint64, u.d)
		var deltas []mask.Mask
		type pair struct {
			id    int32
			delta mask.Mask
		}
		var left []pair
		var n int64
		var t dom.KernelTally
		for lo, hi := claim(); lo < hi; lo, hi = claim() {
			for _, id := range targets[lo:hi] {
				q := u.point(id)
				closed.Fill()
				for _, v := range shields {
					r := dom.Compare(v.point, q)
					for _, delta := range v.member {
						if dom.RelDominates(r, delta) {
							closed.Clear(int(delta) - 1)
						}
					}
				}
				n += int64(len(shields))
				deltas = deltas[:0]
				for b := closed.NextClear(0); b >= 0; b = closed.NextClear(b + 1) {
					deltas = append(deltas, mask.Mask(b+1))
				}
				for _, b := range cols.Blocks {
					for w := 0; w < (b.N+63)>>6 && len(deltas) > 0; w++ {
						dom.RelWord(b, w, q, leq, lt)
						t.Sweeps++
						n += int64(bits.OnesCount64(b.Alive[w]))
						deltas = slices.DeleteFunc(deltas, func(delta mask.Mask) bool {
							return dom.WordDominators(leq, lt, delta) != 0
						})
					}
				}
				for _, delta := range deltas {
					left = append(left, pair{id, delta})
				}
			}
		}
		t.Flush()
		mu.Lock()
		defer mu.Unlock()
		cmps += n
		for _, p := range left {
			open[p.delta] = append(open[p.delta], p.id)
		}
	})

	// Cross-test what is still open, per δ and in id order: a window that
	// admits a point no window point dominates and evicts the ones it
	// dominates.
	for delta, cand := range open {
		dominates := func(a, b int32) bool {
			cmps++
			return dom.DominatesIn(u.point(a), u.point(b), delta)
		}
		slices.Sort(cand)
		var win []int32
		for _, id := range cand {
			if slices.ContainsFunc(win, func(w int32) bool { return dominates(w, id) }) {
				continue
			}
			win = slices.DeleteFunc(win, func(w int32) bool { return dominates(id, w) })
			win = append(win, id)
		}
		open[delta] = win
	}
	u.cmps += cmps
	return open
}

func (u *Updater) publish(snap *Snapshot) {
	u.cur.Store(snap)
	u.histMu.Lock()
	u.hist = append(u.hist, snap)
	if len(u.hist) > history {
		u.hist = u.hist[len(u.hist)-history:]
	}
	u.histMu.Unlock()
}

// needsCompact reports whether the snapshot's overlay has crossed the
// auto-compaction trigger.
func (u *Updater) needsCompact(snap *Snapshot) bool {
	if !u.opt.AutoCompact {
		return false
	}
	ov := snap.OverlaySize()
	return ov >= minCompactOverlay && float64(ov) >= DefaultCompactFraction*float64(snap.base.points)
}

func (u *Updater) maybeCompact(snap *Snapshot) {
	if !u.needsCompact(snap) {
		return
	}
	select {
	case u.compactCh <- struct{}{}:
	default:
	}
}

func (u *Updater) compactLoop() {
	defer u.wg.Done()
	for {
		select {
		case <-u.closed:
			return
		case <-u.compactCh:
			// The signal can be stale: an explicit Compact — or WAL replay
			// of one, which runs before this loop starts — may have folded
			// the overlay after the signal was queued. Compacting again
			// would advance the epoch with nothing to fold, so a restart
			// would not recover to the pre-crash epoch.
			if u.needsCompact(u.Current()) {
				u.Compact()
			}
		}
	}
}

// ---- dominance helpers ----

// teach sets in dst every subspace in which a point with mask src, related
// to dst's point by (lt, eq), is a skyline member and dominates it: the δ
// clear in src that lie inside lt|eq and touch lt. Subspaces where src's
// point is itself dominated are skipped — its dominator dominates dst's
// point there too (transitivity), so that bit is somebody else's to set.
// Every caller is on the insert path, and none passes src = dst.
func teach(dst, src *bitset.Set, lt, eq mask.Mask) {
	dst.OrDownset(lt|eq, eq, src, nil)
}

// strongestFirst returns ids by ascending (coordinate sum, id): of two points
// the one with the smaller sum dominates the larger region, so a scan for a
// dominator ends, and an open set empties, after the fewest comparisons.
func (u *Updater) strongestFirst(ids []int32) []int32 {
	sums := make([]float32, len(ids))
	for i, id := range ids {
		sums[i] = u.sum(id)
	}
	out := make([]int32, len(ids))
	for i, k := range data.SumOrder(sums, ids) {
		out[i] = ids[k]
	}
	return out
}

// sum is the coordinate sum strongestFirst orders by.
func (u *Updater) sum(id int32) float32 {
	var s float32
	for _, x := range u.point(id) {
		s += x
	}
	return s
}

// sumLess is strongestFirst's order: (coordinate sum, id) ascending.
func sumLess(sa float32, a int32, sb float32, b int32) bool {
	if sa != sb {
		return sa < sb
	}
	return a < b
}

// with inserts ids (ascending) into the ascending list, skipping those it
// holds already.
func with(list, ids []int32) []int32 {
	for _, id := range ids {
		if i, ok := slices.BinarySearch(list, id); !ok {
			list = slices.Insert(list, i, id)
		}
	}
	return list
}

// without removes ids from the ascending list in place.
func without(list, ids []int32) []int32 {
	for _, id := range ids {
		if i, ok := slices.BinarySearch(list, id); ok {
			list = slices.Delete(list, i, i+1)
		}
	}
	return list
}

// mergeIDs returns the union of two disjoint ascending lists, ascending.
func mergeIDs(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}
