package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"skycube/internal/obs"
)

// Client-side defaults (CoordinatorOptions fields left zero).
const (
	DefaultTimeout          = 2 * time.Second
	DefaultHedgeDelay       = 50 * time.Millisecond
	DefaultMaxAttempts      = 3
	DefaultBackoffBase      = 25 * time.Millisecond
	DefaultBackoffMax       = 500 * time.Millisecond
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 5 * time.Second

	// maxResponseBytes caps how much of a replica response is read (a
	// skyline of every point of a large shard, with coordinates, stays far
	// below this).
	maxResponseBytes = 256 << 20
)

// errAllReplicasDown is returned when every replica of a shard is
// unreachable or breaker-blocked.
var errAllReplicasDown = errors.New("cluster: no live replica")

// statusError is a replica's non-2xx response. Keeping the code lets the
// client tell caller errors (4xx — the replica is healthy, the request is
// bad) from replica failures (5xx, timeouts, transport errors). gen is the
// shard's current map generation when the response was a stale-generation
// 409 (0 otherwise).
type statusError struct {
	code int
	msg  string
	gen  uint64
}

func (e *statusError) Error() string { return e.msg }

// isCallerError reports whether err is a 4xx replica response: a
// deterministic rejection of the request itself. Such errors must not
// count toward a replica's circuit breaker and must not be retried —
// every replica would answer the same way.
func isCallerError(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code >= 400 && se.code < 500
}

// staleMapGen reports whether err (anywhere in its chain) is a shard's
// stale-generation 409: the request carried an outdated shard-map
// generation. The caller must reload the current map and retry the whole
// operation on it — never mix shards answered under different maps.
func staleMapGen(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusConflict && se.gen > 0
}

// staleGenOf returns the shard's current map generation carried by a
// stale-generation 409 (0 when err is not one). The retry loops feed it to
// Coordinator.adoptMapGen so a restarted coordinator — counting from 1
// again — catches up to the generation the shard nodes remember instead of
// retrying a number they will reject forever.
func staleGenOf(err error) uint64 {
	var se *statusError
	if errors.As(err, &se) && se.code == http.StatusConflict {
		return se.gen
	}
	return 0
}

// replica is one endpoint of a shard's replica set.
type replica struct {
	url string
	brk *breaker
}

// shardGroup is a shard's replica set plus its global-id scheme.
type shardGroup struct {
	name     string
	replicas []*replica
	// scheme is the shard's piecewise local→global id mapping (filled from
	// ShardSpec or learned from /shard/info at Refresh; extended by a split
	// cutover's seal). Atomic pointer because Refresh and admin operations
	// swap it while concurrent handlers read; nil means not yet known.
	scheme atomic.Pointer[idScheme]
	// diverged latches when a write-all POST partially succeeded: some
	// replicas applied the batch and some exhausted retries, so the
	// replica set is no longer byte-identical. Surfaced via /info and
	// /healthz; cleared when a Refresh observes every replica reachable and
	// agreeing on (epoch, live) again — e.g. after an operator rebuilt the
	// lagging replica through the rebalance bootstrap.
	diverged atomic.Bool
	// rr rotates the first replica tried per request, spreading read load.
	rr atomic.Uint64
}

// clone returns a copy of the group sharing the replica objects (and thus
// their breaker state) — the copy-on-write step of a map swap that changes
// the group's replica list.
func (g *shardGroup) clone() *shardGroup {
	ng := &shardGroup{name: g.name, replicas: append([]*replica(nil), g.replicas...)}
	ng.scheme.Store(g.scheme.Load())
	ng.diverged.Store(g.diverged.Load())
	return ng
}

// pick returns the next replica whose breaker admits a request, nil if none.
// Replicas already tried this request (in `used`) are skipped.
func (g *shardGroup) pick(used map[*replica]bool) *replica {
	n := len(g.replicas)
	start := int(g.rr.Add(1))
	for i := 0; i < n; i++ {
		rep := g.replicas[(start+i)%n]
		if used[rep] || !rep.brk.Allow() {
			continue
		}
		used[rep] = true
		return rep
	}
	return nil
}

// fanoutClient issues requests to shard replicas with per-attempt timeouts,
// capped exponential backoff + jitter retries, hedged reads and circuit
// breakers.
type fanoutClient struct {
	hc          *http.Client
	timeout     time.Duration
	hedgeDelay  time.Duration // 0 disables hedging
	maxAttempts int
	backoffBase time.Duration
	backoffMax  time.Duration
	metrics     *obs.ClusterMetrics
}

// backoff returns the capped exponential delay before retry number n
// (1-based), with ±50% jitter so retry storms from many coordinators
// decorrelate.
func (c *fanoutClient) backoff(n int) time.Duration {
	d := c.backoffBase << uint(n-1)
	if d > c.backoffMax || d <= 0 {
		d = c.backoffMax
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// do runs one HTTP attempt under the per-request timeout, propagating the
// trace context when the request is traced and the shard-map generation
// when the caller pinned one. Non-2xx statuses are errors carrying a body
// snippet; a stale-generation 409 carries the shard's current generation.
func (c *fanoutClient) do(ctx context.Context, method, url string, body []byte, traceparent string, gen uint64) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	if gen > 0 {
		req.Header.Set(mapGenHeader, strconv.FormatUint(gen, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		snippet := string(b)
		if len(snippet) > 200 {
			snippet = snippet[:200]
		}
		se := &statusError{
			code: resp.StatusCode,
			msg:  fmt.Sprintf("%s %s: status %d: %s", method, url, resp.StatusCode, snippet),
		}
		if resp.StatusCode == http.StatusConflict {
			se.gen, _ = strconv.ParseUint(resp.Header.Get(mapGenHeader), 10, 64)
		}
		return nil, se
	}
	return b, nil
}

// get fetches path from one of the shard's replicas: the rotation-chosen
// primary first, a hedge against a second replica if the primary is slow,
// and backoff retries on failure until maxAttempts is exhausted or no
// breaker admits another try. The attempt that loses the race is cancelled
// via context.
//
// When the request is traced (ctx carries a ReqRecord) every attempt sends
// the traceparent header — so the shard's hop record joins the trace — and
// the record receives one event per attempt, hedge, retry and breaker
// rejection. Untraced requests pay a context lookup and nil tests.
func (c *fanoutClient) get(ctx context.Context, g *shardGroup, path string, gen uint64) ([]byte, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rec := obs.RecordFrom(ctx)
	tp := rec.Traceparent()

	type attemptResult struct {
		body  []byte
		err   error
		hedge bool
	}
	results := make(chan attemptResult, c.maxAttempts+1)
	used := map[*replica]bool{}
	launch := func(hedge bool) bool {
		rep := g.pick(used)
		if rep == nil && !hedge {
			// Every replica has been tried once; a retry may revisit them
			// (the failure could have been transient), but a hedge must
			// not duplicate a request already in flight.
			for k := range used {
				delete(used, k)
			}
			rep = g.pick(used)
		}
		if rep == nil {
			if rec != nil {
				rec.Event(obs.Event{Kind: obs.EvBreakerReject, Shard: g.name,
					Hedge: hedge, Start: rec.Since()})
			}
			return false
		}
		go func() {
			began := rec.Since()
			body, err := c.do(ctx, http.MethodGet, rep.url+path, nil, tp, gen)
			switch {
			case err == nil, isCallerError(err):
				// A 4xx means the replica is up and answering; only the
				// request was bad. Either way the replica made contact.
				rep.brk.Success()
			case ctx.Err() != nil:
				// A cancelled loser is not a replica failure — and if this
				// attempt held the breaker's single half-open probe,
				// release it so the replica is not wedged out of rotation
				// until the next verdict-producing attempt.
				rep.brk.AbortProbe()
			default:
				rep.brk.Failure()
			}
			if rec != nil {
				ev := obs.Event{Kind: obs.EvAttempt, Shard: g.name, Replica: rep.url,
					Hedge: hedge, Start: began, Dur: rec.Since() - began}
				if err != nil {
					ev.Err = err.Error()
				}
				rec.Event(ev)
			}
			results <- attemptResult{body, err, hedge}
		}()
		return true
	}

	if !launch(false) {
		return nil, errAllReplicasDown
	}
	inflight := 1
	attempts := 1
	hedged := false
	var hedgeTimer <-chan time.Time
	if c.hedgeDelay > 0 && len(g.replicas) > 1 {
		hedgeTimer = time.After(c.hedgeDelay)
	}
	var retryTimer <-chan time.Time
	var lastErr error

	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeTimer:
			hedgeTimer = nil
			// The primary is slower than the hedge delay: race a second
			// replica and take whichever answers first.
			if launch(true) {
				hedged = true
				inflight++
				if rec != nil {
					rec.Event(obs.Event{Kind: obs.EvHedge, Shard: g.name, Start: rec.Since()})
				}
			}
		case <-retryTimer:
			retryTimer = nil
			if launch(false) {
				c.metrics.Retry(g.name)
				inflight++
				attempts++
				if rec != nil {
					rec.Event(obs.Event{Kind: obs.EvRetry, Shard: g.name, Start: rec.Since(),
						N: int64(attempts)})
				}
			} else if inflight == 0 {
				return nil, lastErr
			}
		case r := <-results:
			inflight--
			if r.err == nil {
				if hedged {
					c.metrics.Hedge(g.name, r.hedge)
				}
				return r.body, nil
			}
			if isCallerError(r.err) {
				// Deterministic rejection: every replica would answer the
				// same 4xx, so retrying only wastes attempts.
				return nil, r.err
			}
			lastErr = r.err
			if inflight > 0 || retryTimer != nil {
				continue // the race partner may still win
			}
			if attempts >= c.maxAttempts {
				return nil, lastErr
			}
			retryTimer = time.After(c.backoff(attempts))
		}
	}
}

// post writes body to every replica of the shard in parallel (replication
// is write-all so replicas stay byte-identical), retrying each replica
// with backoff. It returns one response body per replica, or an error if
// any replica could not be written.
func (c *fanoutClient) post(ctx context.Context, g *shardGroup, path string, body []byte, gen uint64) ([][]byte, error) {
	type repResult struct {
		i    int
		body []byte
		err  error
	}
	rec := obs.RecordFrom(ctx)
	tp := rec.Traceparent()
	ch := make(chan repResult, len(g.replicas))
	for i, rep := range g.replicas {
		go func(i int, rep *replica) {
			var b []byte
			var err error
			for n := 1; ; n++ {
				began := rec.Since()
				b, err = c.do(ctx, http.MethodPost, rep.url+path, body, tp, gen)
				if rec != nil {
					ev := obs.Event{Kind: obs.EvAttempt, Shard: g.name, Replica: rep.url,
						Start: began, Dur: rec.Since() - began}
					if err != nil {
						ev.Err = err.Error()
					}
					rec.Event(ev)
				}
				if err == nil || isCallerError(err) {
					// A 4xx is the caller's fault: the replica answered, so
					// it is healthy for the breaker's purposes, and a retry
					// would deterministically fail the same way.
					rep.brk.Success()
					break
				}
				if ctx.Err() != nil {
					rep.brk.AbortProbe()
					break
				}
				rep.brk.Failure()
				if n >= c.maxAttempts {
					break
				}
				c.metrics.Retry(g.name)
				select {
				case <-time.After(c.backoff(n)):
				case <-ctx.Done():
				}
			}
			ch <- repResult{i, b, err}
		}(i, rep)
	}
	out := make([][]byte, len(g.replicas))
	var firstErr error
	succeeded := 0
	for range g.replicas {
		r := <-ch
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: shard %s replica %s: %w", g.name, g.replicas[r.i].url, r.err)
			}
		} else {
			succeeded++
		}
		out[r.i] = r.body
	}
	if firstErr != nil {
		if succeeded > 0 && !staleMapGen(firstErr) {
			// Write-all partially applied: some replicas took the batch and
			// some did not, so the replica set is no longer byte-identical.
			// Latch it so /info and /healthz surface the divergence instead
			// of hedged reads silently flip-flopping between inconsistent
			// replicas. A stale-generation 409 is exempt: the replica
			// rejected the batch before applying anything, and the caller
			// retries the whole write on the fresh map.
			g.diverged.Store(true)
		}
		return nil, firstErr
	}
	return out, nil
}
