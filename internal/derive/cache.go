package derive

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dyncomp/internal/model"
)

// Cache memoizes derivations by structural shape: the first request for a
// shape runs Derive and keeps the result as an immutable template; every
// later request for the same shape — typically another point of a
// design-space sweep differing only in parameters — is served by Rebind,
// skipping the symbolic execution (and graph compilation) entirely.
//
// A Cache is safe for concurrent use; concurrent first requests for one
// shape still derive exactly once (the losers block until the winner's
// template is ready).
//
// The cache is bounded: once it holds more than its entry limit of
// distinct shapes, the least-recently-used template is evicted (and
// counted in Evictions). A handful of scenario shapes fits any limit; the
// bound protects long-lived servers against adversarial streams of
// structurally distinct inline models. NewCache applies DefaultEntries;
// NewCacheLimit(0) disables eviction.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	limit   int
	clock   int64 // logical LRU clock, bumped per request under mu

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// DefaultEntries is the entry bound applied by NewCache.
const DefaultEntries = 1024

// entryKeyFor extends a structural shape key with the derivation options
// that change the template (pad nodes, reduction), so one
// cache serves differently-derived views of one shape side by side. It
// runs once per request; Snapshot digests the result, so its bytes are
// a metric label and must not change.
func entryKeyFor(key string, opts Options) string {
	return key + "\x00pad=" + strconv.Itoa(opts.PadNodes) + " reduce=" + strconv.FormatBool(opts.Reduce)
}

type cacheEntry struct {
	once sync.Once
	res  *Result
	err  error

	// Bookkeeping under Cache.mu.
	key      string // full entry key, for map deletion
	arch     string // architecture name, for snapshots
	hits     int64
	lastUsed int64
}

// NewCache creates an empty derivation cache bounded to DefaultEntries
// shapes.
func NewCache() *Cache { return NewCacheLimit(DefaultEntries) }

// NewCacheLimit creates an empty derivation cache evicting
// least-recently-used templates beyond limit entries; limit <= 0 means
// unbounded.
func NewCacheLimit(limit int) *Cache {
	return &Cache{entries: map[string]*cacheEntry{}, limit: limit}
}

// Limit returns the entry bound (0: unbounded).
func (c *Cache) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}

// Derive returns a derivation of a bound to a itself, deriving only when
// the cache holds no template for a's structural shape under the given
// options. The returned Result is freshly bound (its graph weights,
// probes and boundary bindings reference a), so each caller may run it
// independently of every other point sharing the template. A nil cache
// derives privately: every call runs the package-level Derive.
func (c *Cache) Derive(a *model.Architecture, opts Options) (*Result, error) {
	if c == nil {
		return Derive(a, opts)
	}
	key, err := ShapeKey(a)
	if err != nil {
		return nil, err
	}
	tmpl, err := c.template(a, key, opts, 1)
	if err != nil {
		return nil, err
	}
	return rebind(tmpl, a, key)
}

// template serves n requests for the template of shape key under opts:
// look the entry up (creating it, and evicting under the LRU bound),
// derive it from a at most once per entry, and count a miss for the
// request that derived and a hit for every other one.
func (c *Cache) template(a *model.Architecture, key string, opts Options, n int) (*Result, error) {
	entryKey := entryKeyFor(key, opts)

	c.mu.Lock()
	c.clock++
	e, ok := c.entries[entryKey]
	if !ok {
		e = &cacheEntry{key: entryKey, arch: a.Name}
		c.entries[entryKey] = e
		c.evictLocked(e)
	}
	e.hits += int64(n)
	e.lastUsed = c.clock
	c.mu.Unlock()

	first := false
	e.once.Do(func() {
		first = true
		c.misses.Add(1)
		e.res, e.err = Derive(a, opts)
	})
	if e.err != nil {
		return nil, e.err
	}
	if first {
		n--
	}
	if n > 0 {
		c.hits.Add(int64(n))
	}
	return e.res, nil
}

// evictLocked drops least-recently-used entries until the cache respects
// its limit again, never evicting keep (the entry just inserted). Callers
// already using an evicted template are unaffected: they hold the entry
// pointer, only the map forgets it. Requires c.mu.
func (c *Cache) evictLocked(keep *cacheEntry) {
	if c.limit <= 0 {
		return
	}
	for len(c.entries) > c.limit {
		var victim *cacheEntry
		for _, e := range c.entries {
			if e == keep {
				continue
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victim.key)
		c.evictions.Add(1)
	}
}

// Stats returns how many cache requests were served by an existing
// template (hits) and how many ran Derive (misses). Misses equal the
// number of derivations performed, including re-derivations of evicted
// shapes.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns how many templates the entry bound has evicted.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Shapes returns the number of distinct structural shapes cached.
func (c *Cache) Shapes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// ShapeStat describes one cached template for occupancy introspection
// (the serving layer exports these as per-shape metrics).
type ShapeStat struct {
	// Arch is the architecture name of the first request that created the
	// template.
	Arch string
	// Digest is a short stable fingerprint of the full entry key (shape
	// key plus derivation options), usable as a metric label.
	Digest string
	// Hits counts requests served by this entry, including the miss that
	// created it.
	Hits int64
}

// Snapshot returns the cached templates ordered from most to least
// recently used.
func (c *Cache) Snapshot() []ShapeStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	type row struct {
		stat ShapeStat
		used int64
	}
	rows := make([]row, 0, len(c.entries))
	for _, e := range c.entries {
		h := fnv.New32a()
		h.Write([]byte(e.key))
		rows = append(rows, row{
			stat: ShapeStat{Arch: e.arch, Digest: fmt.Sprintf("%08x", h.Sum32()), Hits: e.hits},
			used: e.lastUsed,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].used > rows[j].used })
	out := make([]ShapeStat, len(rows))
	for i, r := range rows {
		out[i] = r.stat
	}
	return out
}
