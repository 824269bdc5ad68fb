// Tests of the materialized read path: strong ETags and 304 revalidation,
// epoch-advance invalidation, pinned-epoch keying, and — under -race — the
// guarantee that a response body's epoch never disagrees with its ETag
// while a writer flushes concurrently.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"skycube/internal/obs"
)

// getH issues a GET with extra headers.
func getH(t *testing.T, s *Server, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestSkylineETagAndNotModified(t *testing.T) {
	s, _, _ := newTestServer(t, 0)
	rec := get(t, s, "/skyline?dims=0,1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	etag := rec.Header().Get("Etag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("missing or unquoted ETag: %q", etag)
	}
	// Revalidation with the exact validator, a list, and a weak form.
	for _, inm := range []string{etag, `"zzz", ` + etag, "W/" + etag, "*"} {
		rec = getH(t, s, "/skyline?dims=0,1", map[string]string{"If-None-Match": inm})
		if rec.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", inm, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("If-None-Match %q: 304 carried a body", inm)
		}
	}
	// A non-matching validator serves the full body again.
	rec = getH(t, s, "/skyline?dims=0,1", map[string]string{"If-None-Match": `"stale"`})
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("stale validator: status %d, body %d bytes", rec.Code, rec.Body.Len())
	}
}

// TestCachedBytesIdentical proves a cache hit serves byte-identical output
// to the uncached path, for skyline and membership, points and not.
func TestCachedBytesIdentical(t *testing.T) {
	cached, _, _ := newTestServer(t, 0)
	uncachedSrv, _, _ := newTestServer(t, 0)
	uncached := NewWith(uncachedSrv.cube, uncachedSrv.ds, Options{DisableCache: true})
	for _, path := range []string{
		"/skyline?dims=0,1", "/skyline?dims=0,1,2&points=true", "/membership?id=3",
	} {
		first := get(t, cached, path)
		second := get(t, cached, path) // served from cache
		plain := get(t, uncached, path)
		if first.Body.String() != second.Body.String() {
			t.Errorf("%s: cached bytes differ from cold bytes", path)
		}
		if second.Body.String() != plain.Body.String() {
			t.Errorf("%s: cached bytes differ from uncached server", path)
		}
		if first.Header().Get("Etag") != second.Header().Get("Etag") {
			t.Errorf("%s: ETag changed between cold and hit", path)
		}
	}
}

// TestCacheKeyedByEndpoint: /skyline and /membership share one cache, so
// the same query string sent to both must still get each endpoint's own
// answer, not the body the other one cached first.
func TestCacheKeyedByEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, 0)
	uncached := NewWith(s.cube, s.ds, Options{DisableCache: true})
	const query = "?dims=0&id=1"
	for _, path := range []string{"/skyline", "/membership"} {
		got, want := get(t, s, path+query), get(t, uncached, path+query)
		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
			t.Fatalf("GET %s%s: status %d, body %q; want %q", path, query, got.Code, got.Body.String(), want.Body.String())
		}
	}
}

// TestFlushAndCompactAdvanceCacheKey checks that a mutation + flush (and a
// compact) invalidate by epoch advance: the same URL serves new bytes and a
// new validator, with no explicit invalidation anywhere.
func TestFlushAndCompactAdvanceCacheKey(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := newUpdaterServer(t, Options{Metrics: reg})

	before := get(t, s, "/skyline?dims=0,1,2")
	etagBefore := before.Header().Get("Etag")
	// Warm hit at epoch 1.
	get(t, s, "/skyline?dims=0,1,2")

	post(t, s, "/insert", `{"points": [[1.0, 1, 100]]}`)
	post(t, s, "/flush", "")

	after := get(t, s, "/skyline?dims=0,1,2")
	if after.Body.String() == before.Body.String() {
		t.Fatal("flush did not change the served body")
	}
	if etagAfter := after.Header().Get("Etag"); etagAfter == etagBefore {
		t.Fatalf("flush did not change the validator: %q", etagAfter)
	}
	// The pre-flush validator must no longer revalidate.
	rec := getH(t, s, "/skyline?dims=0,1,2", map[string]string{"If-None-Match": etagBefore})
	if rec.Code != http.StatusOK {
		t.Fatalf("stale validator revalidated after flush: status %d", rec.Code)
	}
	var sky skylineResponse
	if err := json.Unmarshal(after.Body.Bytes(), &sky); err != nil {
		t.Fatal(err)
	}
	if sky.Epoch != 2 {
		t.Fatalf("post-flush body epoch %d, want 2", sky.Epoch)
	}

	// Compaction advances the key too.
	etag2 := after.Header().Get("Etag")
	post(t, s, "/compact", "")
	rec = get(t, s, "/skyline?dims=0,1,2")
	if rec.Header().Get("Etag") == etag2 {
		t.Fatal("compact did not advance the validator")
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sky); err != nil {
		t.Fatal(err)
	}
	if sky.Epoch != 3 {
		t.Fatalf("post-compact body epoch %d, want 3", sky.Epoch)
	}
}

// TestPinnedEpochKeying: a ?epoch=N read bypasses the current-epoch fast
// path but memoizes under its own pinned key — and keeps serving the old
// epoch's bytes after the head moves on.
func TestPinnedEpochKeying(t *testing.T) {
	s, _ := newUpdaterServer(t, Options{})
	baseline := get(t, s, "/skyline?dims=0,1,2")

	post(t, s, "/insert", `{"points": [[1.0, 1, 100]]}`)
	post(t, s, "/flush", "")

	// Pinned read at epoch 1: must match the pre-write response body
	// modulo its variant (same ids, epoch 1).
	p1 := get(t, s, "/skyline?dims=0,1,2&epoch=1")
	p2 := get(t, s, "/skyline?dims=0,1,2&epoch=1")
	if p1.Code != http.StatusOK || p1.Body.String() != p2.Body.String() {
		t.Fatalf("pinned reads disagree: %d %q vs %q", p1.Code, p1.Body, p2.Body)
	}
	var pinned, base skylineResponse
	if err := json.Unmarshal(p1.Body.Bytes(), &pinned); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(baseline.Body.Bytes(), &base); err != nil {
		t.Fatal(err)
	}
	if pinned.Epoch != 1 || fmt.Sprint(pinned.IDs) != fmt.Sprint(base.IDs) {
		t.Fatalf("pinned epoch-1 read = %+v, want ids %v at epoch 1", pinned, base.IDs)
	}
	// The pinned variant's cache key is distinct from the unpinned one: the
	// unpinned read serves epoch 2.
	var head skylineResponse
	if err := json.Unmarshal(get(t, s, "/skyline?dims=0,1,2").Body.Bytes(), &head); err != nil {
		t.Fatal(err)
	}
	if head.Epoch != 2 {
		t.Fatalf("unpinned read epoch %d, want 2", head.Epoch)
	}
}

// TestCacheMetricsCount checks hits/misses/coalesce flow into the registry
// under the node layer label.
func TestCacheMetricsCount(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := newUpdaterServer(t, Options{Metrics: reg})
	get(t, s, "/skyline?dims=0")  // miss
	get(t, s, "/skyline?dims=0")  // hit
	get(t, s, "/skyline?dims=0")  // hit
	get(t, s, "/membership?id=0") // miss
	if h := s.cm.Hits(); h != 2 {
		t.Errorf("hits = %v, want 2", h)
	}
	if m := s.cm.Misses(); m != 2 {
		t.Errorf("misses = %v, want 2", m)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`skycube_cache_hits_total{layer="node"} 2`,
		`skycube_cache_misses_total{layer="node"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestDisableCacheKeepsETagContract: with the cache off, responses still
// carry validators and honour If-None-Match.
func TestDisableCacheKeepsETagContract(t *testing.T) {
	s, _ := newUpdaterServer(t, Options{DisableCache: true})
	rec := get(t, s, "/skyline?dims=0,1")
	etag := rec.Header().Get("Etag")
	if etag == "" {
		t.Fatal("no ETag with cache disabled")
	}
	rec = getH(t, s, "/skyline?dims=0,1", map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match with cache disabled: status %d, want 304", rec.Code)
	}
	if s.cache != nil {
		t.Fatal("DisableCache left a live cache")
	}
}

// TestConcurrentReadersWriterConsistency hammers reads while a writer
// inserts and flushes; run under -race this doubles as a race probe. The
// invariant: a response body's epoch always matches the epoch encoded in
// its ETag — the cache must never pair one epoch's bytes with another's
// validator, no matter how the flush interleaves.
func TestConcurrentReadersWriterConsistency(t *testing.T) {
	s, _ := newUpdaterServer(t, Options{})
	const readers = 8
	const reads = 60
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: insert + flush in a tight loop
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			post(t, s, "/insert", fmt.Sprintf(`{"points": [[%d, %d, %d]]}`, 50+i, 50+i, 500+i))
			post(t, s, "/flush", "")
		}
	}()
	errs := make(chan error, readers)
	for w := 0; w < readers; w++ {
		go func() {
			for i := 0; i < reads; i++ {
				req := httptest.NewRequest(http.MethodGet, "/skyline?dims=0,1,2", nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body)
					return
				}
				var resp skylineResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errs <- fmt.Errorf("decode: %w", err)
					return
				}
				wantPrefix := fmt.Sprintf(`"e%d-`, resp.Epoch)
				if etag := rec.Header().Get("Etag"); !strings.HasPrefix(etag, wantPrefix) {
					errs <- fmt.Errorf("body epoch %d but ETag %q", resp.Epoch, etag)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < readers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCacheEntriesBound checks the LRU bound is honoured end to end.
func TestCacheEntriesBound(t *testing.T) {
	s, _, _ := newTestServer(t, 0)
	srv := NewWith(s.cube, s.ds, Options{CacheEntries: 2})
	for _, dims := range []string{"0", "1", "2", "0,1"} {
		get(t, srv, "/skyline?dims="+dims)
	}
	if n := srv.cache.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want bound 2", n)
	}
}
