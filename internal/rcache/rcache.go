// Package rcache is the materialized read path's response cache: a small,
// LRU-bounded map from (epoch, endpoint, request variant) to a
// fully-encoded response body, with a singleflight gate so N concurrent
// readers of a cold key trigger exactly one computation.
//
// The design leans entirely on MVCC epochs for correctness. A key embeds
// the epoch the response was computed at, and epochs only ever advance
// (delta flush, compaction, or — at the coordinator — a routed write), so a
// cached entry is bit-exact for as long as anything can look it up under
// its key. There is no TTL, no heuristic invalidation, and nothing to
// invalidate explicitly: an epoch advance simply makes readers derive new
// keys, and stale entries age out of the LRU.
//
// Get is engineered to be allocation-free: the key is a comparable struct
// (map lookup does not escape), the LRU list is intrusive, and metrics
// handles are pre-resolved atomics. Serving a hit is a mutex-guarded map
// probe, a pointer splice, and a byte-slice write.
package rcache

import (
	"net/http"
	"strings"
	"sync"

	"skycube/internal/obs"
)

// Key identifies one cached response exactly. Epoch is the MVCC epoch (or
// any monotone generation) the response was computed at; Path is the
// endpoint that answers it (or another namespace for a family of keys), so
// endpoints sharing a cache never serve each other's bodies; Variant is the
// normalized request variant — typically the raw query string, which pins
// dimension order, points/extended flags, and pinned-epoch parameters
// without parsing them.
type Key struct {
	Epoch   uint64
	Path    string
	Variant string
}

// Entry is one immutable cached response: the encoded body, its content
// type and its strong validator. Entries are shared between concurrent
// readers and must never be mutated after publication.
type Entry struct {
	// ETag is the strong validator of the body, derived from the epoch and
	// subspace that produced it (quoted, per RFC 9110).
	ETag string
	// ETagHeader is ETag pre-boxed as a header value slice, so serving a
	// hit can assign it into the header map without allocating.
	ETagHeader []string
	// ContentType is the pre-boxed Content-Type header value, assigned into
	// the header map directly so serving a hit does not allocate.
	ContentType []string
	// Body is the fully-encoded response (for JSON: trailing newline
	// included, exactly as the uncached path would have written).
	Body []byte
}

var (
	contentTypeJSON   = []string{"application/json"}
	contentTypeBinary = []string{"application/octet-stream"}
)

// NewEntry builds an immutable JSON entry, pre-boxing the header value.
func NewEntry(etag string, body []byte) *Entry {
	return &Entry{ETag: etag, ETagHeader: []string{etag}, ContentType: contentTypeJSON, Body: body}
}

// NewBinaryEntry is NewEntry for a body that is a binary frame
// (application/octet-stream) — the shard's /shard/cuboid replies.
func NewBinaryEntry(etag string, body []byte) *Entry {
	return &Entry{ETag: etag, ETagHeader: []string{etag}, ContentType: contentTypeBinary, Body: body}
}

// Serve writes a materialized response: strong ETag always, 304 Not
// Modified when If-None-Match revalidates, the pre-encoded bytes
// otherwise. cm may be nil.
func Serve(w http.ResponseWriter, r *http.Request, e *Entry, cm *obs.CacheMetrics) {
	h := w.Header()
	h["Etag"] = e.ETagHeader
	if MatchETag(r.Header.Get("If-None-Match"), e.ETag) {
		cm.NotModified()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = e.ContentType
	_, _ = w.Write(e.Body)
}

// MatchETag implements the weak comparison If-None-Match calls for
// (RFC 9110 §13.1.2): the header may be "*" or a comma-separated list, and
// a W/ prefix on a listed validator is ignored. Substring slicing only —
// no allocation on the revalidation path.
func MatchETag(inm, etag string) bool {
	if inm == "" {
		return false
	}
	if inm == "*" || inm == etag {
		return true
	}
	for inm != "" {
		var tok string
		if i := strings.IndexByte(inm, ','); i >= 0 {
			tok, inm = inm[:i], inm[i+1:]
		} else {
			tok, inm = inm, ""
		}
		tok = strings.TrimSpace(tok)
		tok = strings.TrimPrefix(tok, "W/")
		if tok == etag {
			return true
		}
	}
	return false
}

// node is one intrusive LRU list element.
type node struct {
	key        Key
	entry      *Entry
	prev, next *node
}

// call is one in-flight singleflight computation.
type call struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// DefaultEntries bounds the cache when the configured size is zero.
const DefaultEntries = 4096

// Cache is the LRU-bounded, singleflight-gated response cache. The zero
// value is not usable; construct with New. A nil *Cache is valid and
// disables caching: Get always misses and Fill computes without storing —
// the -no-cache escape hatch is just a nil cache.
type Cache struct {
	mu       sync.Mutex
	entries  map[Key]*node
	inflight map[Key]*call
	head     *node // most recently used
	tail     *node // least recently used
	max      int
	metrics  *obs.CacheMetrics
}

// New returns a cache bounded to max entries (DefaultEntries when max ≤ 0),
// reporting to m (which may be nil).
func New(max int, m *obs.CacheMetrics) *Cache {
	if max <= 0 {
		max = DefaultEntries
	}
	return &Cache{
		entries:  make(map[Key]*node),
		inflight: make(map[Key]*call),
		max:      max,
		metrics:  m,
	}
}

// Get returns the entry cached under key, promoting it to most recently
// used. The miss counter is deliberately not touched here: a miss proceeds
// to Fill, which records it, so a hit-after-coalesce is not double-counted.
func (c *Cache) Get(key Key) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	n, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.promote(n)
	e := n.entry
	c.mu.Unlock()
	c.metrics.Hit(len(e.Body))
	return e, true
}

// Fill returns the entry for key, computing it with fn if absent. Exactly
// one caller runs fn per cold key; the rest block on the in-flight
// computation and share its result. fn runs without the cache lock held.
// A nil receiver, or an fn error, computes without caching.
func (c *Cache) Fill(key Key, fn func() (*Entry, error)) (*Entry, error) {
	if c == nil {
		return fn()
	}
	c.mu.Lock()
	if n, ok := c.entries[key]; ok {
		// Lost a race with another fill between the caller's Get and now:
		// count it as the hit it effectively is.
		c.promote(n)
		e := n.entry
		c.mu.Unlock()
		c.metrics.Hit(len(e.Body))
		return e, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.metrics.Coalesce()
		<-cl.done
		return cl.entry, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	c.metrics.Miss()
	cl.entry, cl.err = fn()
	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil && cl.entry != nil {
		c.insert(key, cl.entry)
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.entry, cl.err
}

// Put stores entry under key unconditionally (no singleflight). The
// coordinator uses it to index one merged response under a second key —
// the shard-epoch vector — alongside its write-generation key.
func (c *Cache) Put(key Key, e *Entry) {
	if c == nil || e == nil {
		return
	}
	c.mu.Lock()
	c.insert(key, e)
	c.mu.Unlock()
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// insert stores entry under key, evicting from the LRU tail past the
// bound. The caller holds c.mu.
func (c *Cache) insert(key Key, e *Entry) {
	if n, ok := c.entries[key]; ok {
		n.entry = e
		c.promote(n)
		return
	}
	n := &node{key: key, entry: e}
	c.entries[key] = n
	c.pushFront(n)
	for len(c.entries) > c.max {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
		c.metrics.Evict()
	}
	c.metrics.Resident(len(c.entries))
}

// promote moves n to the list head. The caller holds c.mu.
func (c *Cache) promote(n *node) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *Cache) pushFront(n *node) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
