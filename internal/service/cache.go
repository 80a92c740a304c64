package service

import (
	"container/list"
	"encoding/binary"
	"strings"
	"sync"
	"sync/atomic"

	"parsge"
)

// cacheKey builds the full identity of a query result: the canonical
// pattern encoding (relabeling-invariant — isomorphic patterns from
// different clients share an entry) × the resolved matching semantics ×
// a fingerprint of every option that can change the result *content*.
//
// Execution knobs — Workers, TaskGroupSize, Timeout, Visit — are
// deliberately excluded: they change how a result is computed, never
// what it is (a timed-out run is not cached at all, so Timeout cannot
// leak partial results into the cache). The fingerprint is Limit, which
// truncates the result set, and Algorithm, which is sound (all engines
// agree on counts) but changes the reported Plan/States — aliasing it
// would make /stats lie about what ran. Every engine reads a negative
// Limit as 0 (enumerate all), so the key does too: one result, one
// entry and one flight.
func cacheKey(canon []byte, sem parsge.Semantics, opts parsge.Options) string {
	var tail [1 + 3*binary.MaxVarintLen64]byte
	t := append(tail[:0], 0xfe) // separator: canon is length-prefixed varints, this byte cannot extend it
	t = binary.AppendVarint(t, int64(sem))
	t = binary.AppendVarint(t, max(opts.Limit, 0))
	t = binary.AppendVarint(t, int64(opts.Algorithm))
	// One allocation: the Builder's buffer becomes the string.
	var b strings.Builder
	b.Grow(len(canon) + len(t))
	b.Write(canon)
	b.Write(t)
	return b.String()
}

// entry is one cached result. Mappings, when present, are stored in the
// *canonical* pattern numbering (mappings[i][canonPos] = target node),
// so any client pattern isomorphic to the cached one can have them
// translated back through its own canonical permutation.
//
// entry is epoch-keyed: every construction site must say which graph
// version the result belongs to (sgelint's epochkey analyzer enforces
// it) — an entry whose epoch silently defaulted to zero would be
// served as if computed on the never-updated graph.
//
//sgelint:epochkey
type entry struct {
	key      string
	res      parsge.Result // the complete run that populated the entry (never TimedOut)
	mappings [][]int32     // canonical numbering; nil with !hasMappings
	// epoch is the target mutation epoch the entry's run executed
	// against (res.Epoch at construction). A lookup at a different
	// epoch treats the entry as stale and evicts it (see get) — the
	// cache can never serve a result computed on a superseded graph
	// version.
	epoch uint64
	// hasMappings distinguishes "cached zero mappings" (a complete
	// empty result set) from a count-only entry.
	hasMappings bool
	cost        int64
}

// entryCost weighs an entry by the match memory it pins: one unit for
// the counts themselves plus one per stored mapping. This is the
// "match-count memory" the LRU budget bounds — a count-only entry for a
// billion-match query costs 1, a 10k-mapping entry costs 10001.
func entryCost(e *entry) int64 {
	return 1 + int64(len(e.mappings))
}

// canonical converts one mapping in the client pattern's numbering to
// the canonical numbering, given the client pattern's canonical
// permutation perm (node v of the client pattern is canonical node
// perm[v]). A hit maps it back with m[v] = cm[perm[v]].
func canonical(m []int32, perm []int32) []int32 {
	cm := make([]int32, len(m))
	for v, tv := range m {
		cm[perm[v]] = tv
	}
	return cm
}

// storeMax bounds an epochStore; recomputing an entry costs
// milliseconds, so on overflow the store is simply cleared rather than
// LRU-tracked.
const storeMax = 4096

// epochStore holds values that are each valid for the target mutation
// epoch they were computed at: a lookup at any other epoch evicts the
// entry on sight and misses. It backs the census cache (one complete
// census per K) and the cost-estimate cache (one estimate per cacheKey).
type epochStore[K comparable, V any] struct {
	mu           sync.Mutex
	m            map[K]stamped[V]
	hits, misses atomic.Int64
}

// stamped is one epochStore value with the epoch it was computed at.
//
//sgelint:epochkey
type stamped[V any] struct {
	val   V
	epoch uint64
}

// get returns the value stored under k if it was computed at epoch;
// count says whether the lookup shows in the hit and miss counters.
func (s *epochStore[K, V]) get(k K, epoch uint64, count bool) (v V, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[k]
	if ok && e.epoch != epoch {
		delete(s.m, k) // computed on a superseded graph version
		ok = false
	}
	if !ok {
		if count {
			s.misses.Add(1)
		}
		return v, false
	}
	if count {
		s.hits.Add(1)
	}
	return e.val, true
}

// put stores v under k as computed at epoch — the epoch its run
// executed against, even if the target moved on meanwhile (the entry is
// then already stale and dies on its next lookup).
func (s *epochStore[K, V]) put(k K, v V, epoch uint64) {
	s.mu.Lock()
	if s.m == nil || len(s.m) >= storeMax {
		s.m = make(map[K]stamped[V])
	}
	s.m[k] = stamped[V]{val: v, epoch: epoch}
	s.mu.Unlock()
}

// memoMaxBytes bounds the bytes a Server's pattern memo retains (as
// memoCost estimates them): room for thousands of distinct pattern
// texts, yet small beside the result cache. It is a constant rather
// than a setting because an overflow costs only a re-parse of each text
// still in use, never a result.
const memoMaxBytes = 4 << 20

// patternMemo maps request pattern text to its parsedPattern, so a
// repeated text skips the label-table lock, the parser and
// canonicalization. It needs neither an epoch nor a target: a parse
// depends only on the text and the label table, which only ever grows
// (an interned label keeps its id for good), and the canonical identity
// only on the parse. Like epochStore it is cleared, not LRU-tracked,
// when a new entry would overflow its byte budget.
type patternMemo struct {
	mu    sync.Mutex
	m     map[string]*parsedPattern
	bytes int64 // retained, by memoCost
	max   int64
}

// memoCost estimates the bytes one memo entry retains: the text, the
// graph's CSR arrays (a label per node, two offsets per node, an
// endpoint and a label per arc in each direction), the canonical form,
// and a fixed allowance for headers, the map slot and size classes.
func memoCost(text string, p *parsedPattern) int64 {
	n, m := int64(p.graph.NumNodes()), int64(p.graph.NumEdges())
	return int64(len(text)) + 12*n + 16*m + int64(len(p.canon)) + 4*int64(len(p.perm)) + 512
}

// get returns the memoized parse of text, nil if there is none. The
// lookup by the text's bytes allocates nothing.
func (m *patternMemo) get(text []byte) *parsedPattern {
	m.mu.Lock()
	p := m.m[string(text)]
	m.mu.Unlock()
	return p
}

// put memoizes p for text unless the text is already present (a
// concurrent miss got there first) or p alone exceeds the budget.
func (m *patternMemo) put(text string, p *parsedPattern) {
	cost := memoCost(text, p)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.m[text]; ok || cost > m.max {
		return
	}
	if m.m == nil || m.bytes+cost > m.max {
		m.m = make(map[string]*parsedPattern)
		m.bytes = 0
	}
	m.m[text] = p
	m.bytes += cost
}

// cache is the LRU result cache: entries keyed by cacheKey, total cost
// bounded by maxCost, least-recently-used evicted first. A maxCost of 0
// disables caching entirely (every get misses, every put is dropped).
type cache struct {
	mu      sync.Mutex
	maxCost int64
	cost    int64
	byKey   map[string]*list.Element // of *entry
	lru     *list.List               // front = most recent

	hits, misses, evictions int64
}

func newCache(maxCost int64) *cache {
	return &cache{maxCost: maxCost, byKey: make(map[string]*list.Element), lru: list.New()}
}

// get returns the entry for key if present, current, and sufficient: an
// entry from a different target mutation epoch is stale — it is evicted
// on sight and the lookup misses — and a count-only entry cannot serve
// a request that needs mappings (it reports a miss, and the subsequent
// put upgrades the entry). count says whether the lookup shows in the
// hit and miss counters.
func (c *cache) get(key string, needMappings bool, epoch uint64, count bool) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*entry)
		if e.epoch != epoch {
			c.lru.Remove(el)
			delete(c.byKey, e.key)
			c.cost -= e.cost
			c.evictions++
		} else if !needMappings || e.hasMappings {
			c.lru.MoveToFront(el)
			if count {
				c.hits++
			}
			return e, true
		}
	}
	if count {
		c.misses++
	}
	return nil, false
}

// put inserts (or upgrades) an entry and evicts from the cold end until
// the budget holds again. Entries are immutable once inserted — readers
// hold them outside the lock — so an upgrade replaces the element.
func (c *cache) put(e *entry) {
	e.cost = entryCost(e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxCost <= 0 || e.cost > c.maxCost {
		return
	}
	if old, ok := c.byKey[e.key]; ok {
		oe := old.Value.(*entry)
		if oe.hasMappings && !e.hasMappings && oe.epoch == e.epoch {
			// Never downgrade a same-epoch mapping entry to a count-only
			// one. Across epochs the new entry always replaces — if a
			// straggler reinstates a superseded epoch, get evicts it on
			// the next current-epoch lookup.
			c.lru.MoveToFront(old)
			return
		}
		c.cost -= oe.cost
		c.lru.Remove(old)
	}
	c.byKey[e.key] = c.lru.PushFront(e)
	c.cost += e.cost
	for c.cost > c.maxCost {
		back := c.lru.Back()
		be := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.byKey, be.key)
		c.cost -= be.cost
		c.evictions++
	}
}

// stats returns a point-in-time view of the cache counters.
func (c *cache) stats() (entries int, cost, hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey), c.cost, c.hits, c.misses, c.evictions
}
