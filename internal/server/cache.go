package server

import (
	"container/list"
	"strings"
	"sync"

	"github.com/aqldb/aql/internal/env"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/scan"
)

// DefaultCacheSize is the prepared-plan cache capacity when Config leaves
// it unset.
const DefaultCacheSize = 256

// NormalizeQuery canonicalizes query text for plan-cache keying: comments
// and runs of inter-token whitespace collapse to a single space, leading and
// trailing separators are dropped, and a trailing statement semicolon is
// insignificant. Queries differing only in layout therefore share one
// prepared plan. White space, comments and string literals are the
// scanner's (scan.Space, scan.StringEnd): a string literal, which may hold
// significant whitespace, quotes and escapes, is copied verbatim, so the
// normalized text is always semantically identical to the submitted query
// and distinct literals never collide on one key. Every other byte is
// copied as it is.
func NormalizeQuery(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	sep := false // a whitespace/comment run is pending
	for i := 0; i < len(src); {
		end, open := scan.Space(src, i)
		if open >= 0 {
			// An unterminated comment cannot be lexed; leave the text to the
			// parser verbatim.
			return src
		}
		if end > i {
			sep, i = true, end
			continue
		}
		if sep && b.Len() > 0 {
			b.WriteByte(' ')
		}
		sep = false
		end = i + 1
		if src[i] == '"' {
			// An unterminated literal copies to the end; the parser reports
			// it on the unchanged text.
			end, _ = scan.StringEnd(src, i)
		}
		b.WriteString(src[i:end])
		i = end
	}
	// No separator is written after the last token, so a trailing
	// semicolon has at most one before it.
	return strings.TrimSuffix(strings.TrimSuffix(b.String(), ";"), " ")
}

// plan is one cache entry: the session front end's immutable plan value,
// with the program every request for the query executes.
type plan = repl.Plan

// CacheStats is a snapshot of the plan cache's counters.
type CacheStats struct {
	Size          int   `json:"size"`
	Capacity      int   `json:"capacity"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// planCache is an LRU of prepared plans keyed by normalized query text, with
// hit/miss/eviction/invalidation counters. Whether an entry may be served is
// the plan's own decision (repl.Plan.Current); the cache only counts it. All
// methods are safe for concurrent use.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used; values are *cacheEntry

	hits, misses, evictions, invalidations int64
}

type cacheEntry struct {
	query string
	p     *plan
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &planCache{cap: capacity, entries: map[string]*list.Element{}, lru: list.New()}
}

// get returns the cached plan for query if it is Current against e under
// maxDepth, counting a hit. A missing entry is a miss; a stale one is a miss
// and an invalidation, left in place for put to replace.
func (c *planCache) get(query string, e *env.Env, maxDepth int) (*plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[query]
	if !ok {
		c.misses++
		return nil, false
	}
	p := el.Value.(*cacheEntry).p
	if !p.Current(e, maxDepth) {
		c.misses++
		c.invalidations++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return p, true
}

// put inserts or replaces the plan for query, evicting the least recently
// used entry at capacity. Concurrent puts of one query win-last; an entry
// that loses its currency that way is found stale and replaced again.
func (c *planCache) put(query string, p *plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[query]; ok {
		el.Value.(*cacheEntry).p = p
		c.lru.MoveToFront(el)
		return
	}
	c.entries[query] = c.lru.PushFront(&cacheEntry{query: query, p: p})
	for len(c.entries) > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).query)
		c.evictions++
	}
}

// stats snapshots the counters.
func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:          len(c.entries),
		Capacity:      c.cap,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
}
