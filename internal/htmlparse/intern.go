package htmlparse

import (
	"sync"
)

// interner is the interning surface the tokenizer and DOM builders
// draw from: the shared (locked) Intern pool directly, or a per-worker
// CachedIntern in front of it.
type interner interface {
	Intern(b []byte) string
	InternString(str string) string
}

// Intern is a sharded string-interning pool. The byte-backed tokenizer
// funnels every tag name, attribute key and CSS class token through it, so
// the handful of distinct names a vendor manual uses (Appendix B: manuals
// repeat the same few styling classes on every page) are materialized as
// Go strings exactly once per process instead of once per token. The pool
// is safe for concurrent use: the parallel parser shares one pool across
// its page workers.
type Intern struct {
	shards [internShards]internShard
}

const internShards = 16

type internShard struct {
	mu sync.RWMutex
	m  map[string]string
}

// NewIntern returns an empty interning pool.
func NewIntern() *Intern {
	p := &Intern{}
	for i := range p.shards {
		p.shards[i].m = make(map[string]string)
	}
	return p
}

// defaultIntern is the process-wide pool Parse and ParseBytes use. Vendor
// manuals across one corpus share almost all their markup vocabulary, so
// one shared pool maximizes reuse.
var defaultIntern = NewIntern()

// fnv1a hashes b (FNV-1a, 32 bit) to pick a shard.
func fnv1a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// Intern returns the canonical string equal to b, allocating it only on
// first sight. The common path (already-interned token) takes a shared
// read lock and, thanks to Go's map[string] []byte-key optimization, does
// not allocate.
func (p *Intern) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	s := &p.shards[fnv1a(b)%internShards]
	s.mu.RLock()
	v, ok := s.m[string(b)] // no alloc: compiler optimizes []byte map key
	s.mu.RUnlock()
	if ok {
		return v
	}
	s.mu.Lock()
	v, ok = s.m[string(b)]
	if !ok {
		v = string(b)
		s.m[v] = v
	}
	s.mu.Unlock()
	return v
}

// InternString is Intern for an existing string (no copy when already
// pooled).
func (p *Intern) InternString(str string) string {
	if str == "" {
		return ""
	}
	s := &p.shards[fnv1aString(str)%internShards]
	s.mu.RLock()
	v, ok := s.m[str]
	s.mu.RUnlock()
	if ok {
		return v
	}
	s.mu.Lock()
	v, ok = s.m[str]
	if !ok {
		v = str
		s.m[v] = v
	}
	s.mu.Unlock()
	return v
}

func fnv1aString(str string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(str); i++ {
		h ^= uint32(str[i])
		h *= 16777619
	}
	return h
}

// CachedIntern is a read-through cache in front of a shared Intern pool
// for a single-goroutine consumer. The shared pool's RWMutex costs two
// atomic operations per lookup; on the arena decode path — which interns
// every tag name, attribute key, and class token of every page — those
// atomics dominate once allocations are slab-amortized. A CachedIntern
// resolves repeats from a plain (unlocked) map and only falls through to
// the shared pool on first sight, so canonical identity still spans all
// workers. Not safe for concurrent use; give each worker its own.
type CachedIntern struct {
	pool *Intern
	m    map[string]string
}

// NewCachedIntern returns an empty cache draining into pool (nil uses
// the shared default pool).
func NewCachedIntern(pool *Intern) *CachedIntern {
	if pool == nil {
		pool = defaultIntern
	}
	return &CachedIntern{pool: pool, m: make(map[string]string, 64)}
}

// Intern returns the canonical string equal to b.
func (c *CachedIntern) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if v, ok := c.m[string(b)]; ok { // no alloc: compiler optimizes []byte map key
		return v
	}
	v := c.pool.Intern(b)
	c.m[v] = v
	return v
}

// InternString is Intern for an existing string.
func (c *CachedIntern) InternString(str string) string {
	if str == "" {
		return ""
	}
	if v, ok := c.m[str]; ok {
		return v
	}
	v := c.pool.InternString(str)
	c.m[v] = v
	return v
}

// Len returns the number of distinct strings pooled, for tests and
// telemetry.
func (p *Intern) Len() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
