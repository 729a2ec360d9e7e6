// Package kcache is a content-addressed cache for compiler artifacts:
// compiled programs, transformation reports and auto-tune verdicts, keyed
// by a SHA-256 digest of everything that determines the artifact (kernel
// source, preprocessor defines, Grover options, device profile).
//
// The cache is built for a concurrent service front-end:
//
//   - Singleflight deduplication: N concurrent requests for the same key
//     trigger exactly one compute; the other N-1 block and share the
//     result (and its error).
//   - LRU capacity bound: the cache never holds more than its configured
//     number of entries; the least-recently-used artifact is evicted.
//   - Counters: hits, misses, deduplicated waits and evictions are
//     tracked for the service's stats endpoint.
//
// Errors are never cached: a failed compute leaves no entry, so a
// transient failure does not poison the key.
package kcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// Key derives the content address for a piece of compiler work: the
// SHA-256 of each part's encoding/json encoding. The encoding quotes every
// string and sorts map keys, and the encoder ends each part with a newline
// no encoding holds, so parts whose encodings differ never share a key
// ("ab","c" never hashes like "a","bc"). Strings are encoded as UTF-8, so
// two that differ only in invalid bytes share one; a string decoded from
// JSON holds none.
func Key(parts ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			panic("kcache: key part: " + err.Error())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Outcome classifies how a Do call was served.
type Outcome int

// Do outcomes.
const (
	// Miss means this call ran the compute function.
	Miss Outcome = iota
	// Hit means the artifact was already cached.
	Hit
	// Dedup means another in-flight call was already computing the same
	// key; this call waited and shared its result.
	Dedup
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Dedup:
		return "dedup"
	}
	return "miss"
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts Do calls served from a resident entry.
	Hits int64 `json:"hits"`
	// Misses counts Do calls that ran their compute function.
	Misses int64 `json:"misses"`
	// Dedups counts Do calls that piggybacked on an in-flight compute.
	Dedups int64 `json:"dedups"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
	// Entries and Capacity describe current occupancy.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// InFlight counts computes currently running.
	InFlight int `json:"in_flight"`
	// HitRatio is Hits / (Hits + Misses + Dedups), 0 with no lookups.
	HitRatio float64 `json:"hit_ratio"`
}

// DefaultCapacity bounds a Cache built with New(0).
const DefaultCapacity = 256

// Cache is the concurrent content-addressed LRU cache.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	byKey    map[string]*list.Element
	inflight map[string]*flight

	hits, misses, dedups, evictions int64
}

type entry struct {
	key string
	val interface{}
}

type flight struct {
	done chan struct{}
	val  interface{}
	err  error
}

// New creates a cache bounded to capacity entries (DefaultCapacity if
// capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Get returns the cached artifact without computing, refreshing its LRU
// position on a hit. It does not wait for in-flight computes.
func (c *Cache) Get(key string) (interface{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).val, true
	}
	c.misses++
	return nil, false
}

// claim looks key up for a Do or DoMany call and tallies the outcome: the
// resident value on a Hit, the flight to wait on for a Dedup, or — a Miss —
// a new flight the caller must finish. c.mu is held.
func (c *Cache) claim(key string) (interface{}, *flight, Outcome) {
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).val, nil, Hit
	}
	if f, ok := c.inflight[key]; ok {
		c.dedups++
		return nil, f, Dedup
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	return nil, f, Miss
}

// Do returns the artifact for key, computing it at most once across all
// concurrent callers. The reported Outcome says whether this call hit the
// cache, ran the compute, or waited on another caller's compute.
func (c *Cache) Do(key string, compute func() (interface{}, error)) (interface{}, Outcome, error) {
	c.mu.Lock()
	val, f, out := c.claim(key)
	c.mu.Unlock()
	switch out {
	case Hit:
		return val, Hit, nil
	case Dedup:
		<-f.done
		return f.val, Dedup, f.err
	}

	// Publish the result even if compute panics, so waiters never hang;
	// the panic then propagates to this caller.
	completed := false
	defer func() {
		if !completed {
			c.finish(key, f, nil, fmt.Errorf("kcache: compute for %s panicked", key))
		}
	}()
	val, err := compute()
	completed = true
	c.finish(key, f, val, err)
	return val, Miss, err
}

// DoMany is Do for several distinct keys whose computes share work: the
// keys nobody holds or is computing are claimed together and compute is
// called once with their indices, returning one value and one error per
// index it was given; each is then published under its own key. Keys
// another caller is computing are waited for after that, so two DoMany
// calls with overlapping keys cannot wait on each other. compute is not
// called when every key hits or dedups.
func (c *Cache) DoMany(keys []string, compute func(miss []int) ([]interface{}, []error)) ([]interface{}, []Outcome, []error) {
	vals := make([]interface{}, len(keys))
	outs := make([]Outcome, len(keys))
	errs := make([]error, len(keys))
	flights := make([]*flight, len(keys))
	var miss []int
	c.mu.Lock()
	for i, key := range keys {
		vals[i], flights[i], outs[i] = c.claim(key)
		if outs[i] == Miss {
			miss = append(miss, i)
		}
	}
	c.mu.Unlock()

	if len(miss) > 0 {
		completed := false // as in Do
		defer func() {
			if completed {
				return
			}
			for _, i := range miss {
				c.finish(keys[i], flights[i], nil, fmt.Errorf("kcache: compute for %s panicked", keys[i]))
			}
		}()
		mv, me := compute(miss)
		completed = true
		for j, i := range miss {
			vals[i], errs[i] = mv[j], me[j]
			c.finish(keys[i], flights[i], mv[j], me[j])
		}
	}
	for i, f := range flights {
		if outs[i] == Dedup {
			<-f.done
			vals[i], errs[i] = f.val, f.err
		}
	}
	return vals, outs, errs
}

// finish stores a successful compute, wakes waiters, and enforces the LRU
// bound.
func (c *Cache) finish(key string, f *flight, val interface{}, err error) {
	c.mu.Lock()
	delete(c.inflight, key)
	f.val, f.err = val, err
	if err == nil {
		if el, ok := c.byKey[key]; ok {
			// A rare interleaving can land a second compute for the same
			// key; keep the resident entry authoritative.
			c.ll.MoveToFront(el)
			el.Value.(*entry).val = val
		} else {
			c.byKey[key] = c.ll.PushFront(&entry{key: key, val: val})
			for c.ll.Len() > c.capacity {
				oldest := c.ll.Back()
				c.ll.Remove(oldest)
				delete(c.byKey, oldest.Value.(*entry).key)
				c.evictions++
			}
		}
	}
	c.mu.Unlock()
	close(f.done)
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Snapshot returns the current counters.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Hits: c.hits, Misses: c.misses, Dedups: c.dedups,
		Evictions: c.evictions,
		Entries:   c.ll.Len(), Capacity: c.capacity,
		InFlight: len(c.inflight),
	}
	if total := st.Hits + st.Misses + st.Dedups; total > 0 {
		st.HitRatio = float64(st.Hits) / float64(total)
	}
	return st
}
