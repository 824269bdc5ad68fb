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

// The replica client's constants. Timeout is the one deployment bound
// (CoordinatorOptions.Timeout); everything else is fixed.
const (
	DefaultTimeout = 2 * time.Second

	// defaultHedgeDelay is how long a primary may stay silent before a hedge
	// races the next replica of the walk.
	defaultHedgeDelay = 50 * time.Millisecond
	// maxAttempts caps a read's primary plus failovers (a hedge is extra)
	// and a write's tries per replica.
	maxAttempts = 3
	// defaultBackoffBase doubles per retry up to backoffMax, with ±50 %
	// jitter.
	defaultBackoffBase = 25 * time.Millisecond
	backoffMax         = 500 * time.Millisecond
	// breakerThreshold consecutive failures open a replica's breaker for
	// breakerCooldown, during which the replica is skipped outright.
	breakerThreshold = 5
	breakerCooldown  = 5 * time.Second

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

// fanoutClient issues requests to shard replicas with per-attempt timeouts,
// capped exponential backoff + jitter retries, hedged reads and circuit
// breakers.
type fanoutClient struct {
	hc      *http.Client
	timeout time.Duration
	// hedgeDelay (0 disables hedging) and backoffBase are
	// defaultHedgeDelay and defaultBackoffBase; tests shorten them.
	hedgeDelay  time.Duration
	backoffBase time.Duration
	metrics     *obs.ClusterMetrics
}

// backoff returns the capped exponential delay before retry number n
// (1-based), with ±50% jitter so retry storms from many coordinators
// decorrelate.
func (c *fanoutClient) backoff(n int) time.Duration {
	d := c.backoffBase << uint(n-1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// do runs one HTTP attempt under the per-request timeout, propagating the
// trace context when the request is traced and the shard-map generation
// when the caller pinned one. Non-2xx statuses are errors carrying a body
// snippet; a stale-generation 409 carries the shard's current generation.
//
// The attempt does not end with ctx: a hedge loser, or an attempt whose
// caller left, still runs to a success or a failure that its replica's
// breaker can count — and a write the caller abandoned still lands on every
// replica it reached.
func (c *fanoutClient) do(ctx context.Context, method, url string, body []byte, traceparent string, gen uint64) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), c.timeout)
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

// verdict credits an attempt's outcome to its replica's breaker. A 4xx
// means the replica is up and answering; only the request was bad.
func verdict(rep *replica, err error) {
	if err == nil || isCallerError(err) {
		rep.brk.Success()
	} else {
		rep.brk.Failure()
	}
}

// get fetches path from one of the shard's replicas. Each request takes one
// rotation step and walks the replicas from there: the primary, the hedge
// (launched when the primary is still silent after hedgeDelay) and each
// failover take the next replica in the walk whose breaker admits a request.
// A failover to an untried replica starts at once; a revisit, once the walk
// has wrapped, waits a backoff. get returns at the first success, at a 4xx,
// when maxAttempts have failed, or when ctx ends — attempts still running
// then go on to their verdicts.
//
// When the request is traced (ctx carries a ReqRecord) every attempt sends
// the traceparent header — so the shard's hop record joins the trace — and
// the record receives one event per attempt, hedge, retry and breaker
// rejection. Untraced requests pay a context lookup and nil tests.
func (c *fanoutClient) get(ctx context.Context, g *shardGroup, path string, gen uint64) ([]byte, error) {
	rec := obs.RecordFrom(ctx)
	tp := rec.Traceparent()

	type attemptResult struct {
		body  []byte
		err   error
		hedge bool
	}
	// Room for every attempt get may launch, so those still running when it
	// returns deliver their results without a reader.
	results := make(chan attemptResult, maxAttempts+1)
	n := len(g.replicas)
	start := int(g.rr.Add(1) % uint64(n))
	pos := 0 // walk positions below n are untried replicas
	// launch starts an attempt on the next admitting replica of the walk
	// before position limit.
	launch := func(limit int, hedge bool) bool {
		for ; pos < limit; pos++ {
			rep := g.replicas[(start+pos)%n]
			if !rep.brk.Allow() {
				continue
			}
			pos++
			go func() {
				began := rec.Since()
				body, err := c.do(ctx, http.MethodGet, rep.url+path, nil, tp, gen)
				verdict(rep, err)
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
		if rec != nil {
			rec.Event(obs.Event{Kind: obs.EvBreakerReject, Shard: g.name,
				Hedge: hedge, Start: rec.Since()})
		}
		return false
	}

	if !launch(n, false) {
		return nil, errAllReplicasDown
	}
	inflight, attempts := 1, 1
	failover := func(limit int) bool {
		if !launch(limit, false) {
			return false
		}
		c.metrics.Retry(g.name)
		inflight++
		attempts++
		if rec != nil {
			rec.Event(obs.Event{Kind: obs.EvRetry, Shard: g.name, Start: rec.Since(),
				N: int64(attempts)})
		}
		return true
	}
	hedged := false
	var hedgeTimer, retryTimer <-chan time.Time
	if c.hedgeDelay > 0 && n > 1 {
		hedgeTimer = time.After(c.hedgeDelay)
	}
	var lastErr error

	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeTimer:
			hedgeTimer = nil
			// The primary is slower than the hedge delay: race the next
			// untried replica and take whichever answers first.
			if launch(n, true) {
				hedged = true
				inflight++
				if rec != nil {
					rec.Event(obs.Event{Kind: obs.EvHedge, Shard: g.name, Start: rec.Since()})
				}
			}
		case <-retryTimer:
			retryTimer = nil
			// The walk has wrapped: revisit the replicas, whose failures
			// may have been transient.
			if !failover(pos + n) {
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
			if attempts < maxAttempts && pos < n && failover(n) {
				continue
			}
			if inflight > 0 || retryTimer != nil {
				continue // the race partner may still win
			}
			if attempts >= maxAttempts {
				return nil, lastErr
			}
			retryTimer = time.After(c.backoff(attempts))
		}
	}
}

// sleep waits d and reports whether ctx was still live at its end.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// post writes body to every replica of the shard in parallel (replication
// is write-all so replicas stay byte-identical), retrying each replica
// with backoff while the caller waits. It returns one response body per
// replica, or an error if any replica could not be written.
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
				verdict(rep, err)
				if rec != nil {
					ev := obs.Event{Kind: obs.EvAttempt, Shard: g.name, Replica: rep.url,
						Start: began, Dur: rec.Since() - began}
					if err != nil {
						ev.Err = err.Error()
					}
					rec.Event(ev)
				}
				// A 4xx would fail the same way again.
				if err == nil || isCallerError(err) || n >= maxAttempts || !sleep(ctx, c.backoff(n)) {
					break
				}
				c.metrics.Retry(g.name)
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
