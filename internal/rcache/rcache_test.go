package rcache

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"skycube/internal/obs"
)

func fillEntry(tag string) func() (*Entry, error) {
	return func() (*Entry, error) { return NewEntry(tag, []byte(tag)), nil }
}

func TestCacheGetFill(t *testing.T) {
	c := New(nil)
	k := Key{Epoch: 1, Variant: "dims=0,2"}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	e, err := c.Fill(k, fillEntry(`"e1-s5"`))
	if err != nil || e == nil {
		t.Fatalf("Fill: %v, %v", e, err)
	}
	got, ok := c.Get(k)
	if !ok || got != e {
		t.Fatalf("Get after Fill: %v, %v (want the filled entry)", got, ok)
	}
	// A different epoch is a different key: epoch advance IS invalidation.
	if _, ok := c.Get(Key{Epoch: 2, Variant: "dims=0,2"}); ok {
		t.Fatal("epoch-advanced key hit a stale entry")
	}
}

// TestCacheLRUEviction fills the cache past DefaultEntries: the least
// recently used entry goes first, and a Get protects an entry from the next
// eviction.
func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewCacheMetrics(reg, "test")
	c := New(m)
	key := func(i int) Key { return Key{Epoch: 1, Variant: fmt.Sprintf("v%d", i)} }
	fill := func(i int) {
		t.Helper()
		if _, err := c.Fill(key(i), fillEntry(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= DefaultEntries; i++ {
		fill(i)
	}
	if c.Len() != DefaultEntries {
		t.Fatalf("Len = %d, want the bound %d", c.Len(), DefaultEntries)
	}
	// v0 was least recently used and must be gone; v1 and the newest remain.
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("LRU entry survived past the bound")
	}
	for _, i := range []int{1, DefaultEntries} {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("recent entry v%d was evicted", i)
		}
	}
	// The Get above touched v1, so the next fill evicts v2 instead.
	fill(DefaultEntries + 1)
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("recently-used entry was evicted before the LRU one")
	}
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("least-recently-used entry survived")
	}
	if c.Len() != DefaultEntries {
		t.Fatalf("Len = %d after a second eviction, want %d", c.Len(), DefaultEntries)
	}
}

func TestCacheSingleflight(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewCacheMetrics(reg, "test")
	c := New(m)
	k := Key{Epoch: 7, Variant: "dims=1"}

	var fills atomic.Int32
	gate := make(chan struct{})
	const readers = 16
	var wg sync.WaitGroup
	results := make([]*Entry, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := c.Fill(k, func() (*Entry, error) {
				fills.Add(1)
				<-gate // hold every other reader in the coalesce path
				return NewEntry(`"t"`, []byte("body")), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = e
		}(i)
	}
	// Wait until one fill is in flight, then release it. The remaining
	// readers either coalesce on it or hit the stored entry afterwards;
	// none may run a second fill.
	for fills.Load() == 0 {
	}
	close(gate)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("%d fills ran for one cold key, want 1", n)
	}
	for i, e := range results {
		if e == nil || string(e.Body) != "body" {
			t.Fatalf("reader %d got %v", i, e)
		}
	}
	if m.Misses() != 1 {
		t.Fatalf("misses = %v, want 1", m.Misses())
	}
	if m.Coalesced()+m.Hits() != readers-1 {
		t.Fatalf("coalesced %v + hits %v != %d", m.Coalesced(), m.Hits(), readers-1)
	}
}

func TestCacheFillErrorNotCached(t *testing.T) {
	c := New(nil)
	k := Key{Epoch: 1, Variant: "x"}
	wantErr := errors.New("boom")
	if _, err := c.Fill(k, func() (*Entry, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("Fill error = %v, want %v", err, wantErr)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("failed fill left an entry behind")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after failed fill", c.Len())
	}
}

func TestNilCacheDisables(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(Key{}); ok {
		t.Fatal("nil cache hit")
	}
	ran := 0
	e, err := c.Fill(Key{}, func() (*Entry, error) { ran++; return NewEntry("t", nil), nil })
	if err != nil || e == nil || ran != 1 {
		t.Fatalf("nil-cache Fill: %v %v ran=%d", e, err, ran)
	}
	// Every Fill recomputes: nothing is stored.
	c.Fill(Key{}, func() (*Entry, error) { ran++; return NewEntry("t", nil), nil })
	if ran != 2 {
		t.Fatalf("nil cache memoized (ran=%d)", ran)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has length")
	}
}

func TestCacheGetZeroAlloc(t *testing.T) {
	c := New(obs.NewCacheMetrics(obs.NewRegistry(), "test"))
	k := Key{Epoch: 3, Variant: "dims=0,1"}
	if _, err := c.Fill(k, fillEntry(`"e"`)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(k); !ok {
			t.Fatal("hit expected")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocates %v objects per hit, want 0", allocs)
	}
}

// TestServeEntryContentType: an entry is served as JSON, and a 304 carries no
// content type.
func TestServeEntryContentType(t *testing.T) {
	for _, c := range []struct {
		e    *Entry
		want string
	}{
		{NewEntry(`"j"`, []byte("{}\n")), "application/json"},
	} {
		rec := httptest.NewRecorder()
		Serve(rec, httptest.NewRequest(http.MethodGet, "/", nil), c.e, nil)
		if got := rec.Header().Get("Content-Type"); got != c.want || rec.Body.Len() != len(c.e.Body) {
			t.Fatalf("entry %s: Content-Type %q (want %q), %d body bytes", c.e.ETag, got, c.want, rec.Body.Len())
		}
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header.Set("If-None-Match", c.e.ETag)
		rec = httptest.NewRecorder()
		Serve(rec, req, c.e, nil)
		if rec.Code != http.StatusNotModified || rec.Header().Get("Content-Type") != "" {
			t.Fatalf("entry %s revalidated: status %d, Content-Type %q", c.e.ETag, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
}
