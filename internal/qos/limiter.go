package qos

import (
	"sync"
	"time"
)

// limiterStripes is the bucket-table stripe count (power of two). Tenant
// ids hash across the stripes so concurrent Invokes from many tenants
// rarely share a lock — the same discipline wmm/shard.go uses for the data
// sink's key space.
const limiterStripes = 16

// limiterStripe is one lock stripe of the bucket table, padded out to a
// 64-byte cache line (mutex 8 + map header 8 + 48) so neighbouring
// stripes' mutexes do not false-share.
type limiterStripe struct {
	mu      sync.Mutex
	buckets map[string]*bucket
	_       [48]byte
}

// bucket is one tenant's admission token bucket. Guarded by its stripe's
// mutex.
type bucket struct {
	spec   Tenant
	tokens float64
	last   time.Duration
}

// Limiter admits requests against per-tenant token buckets. Buckets are
// created lazily on a tenant's first request and live for the limiter's
// lifetime (tenant cardinality is an operator-configured handful, not a
// per-request value).
type Limiter struct {
	cfg     *Config
	stripes [limiterStripes]limiterStripe
}

// NewLimiter returns a Limiter drawing tenant envelopes from cfg.
func NewLimiter(cfg *Config) *Limiter {
	l := &Limiter{cfg: cfg}
	for i := range l.stripes {
		l.stripes[i].buckets = make(map[string]*bucket)
	}
	return l
}

// fnv32a constants (the same seed the wmm sharder uses).
const (
	limFNVOffset = 2166136261
	limFNVPrime  = 16777619
)

func (l *Limiter) stripe(tenant string) *limiterStripe {
	h := uint32(limFNVOffset)
	for i := 0; i < len(tenant); i++ {
		h ^= uint32(tenant[i])
		h *= limFNVPrime
	}
	return &l.stripes[h&(limiterStripes-1)]
}

// Allow consumes one admission token for the tenant at the given timestamp
// (monotonic, plane-defined: wall time since the system epoch, or virtual
// time). When the bucket is empty it reports false and how long the tenant
// must wait for the next token to accrue.
func (l *Limiter) Allow(now time.Duration, tenant string) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0 // plane disabled: admit unconditionally
	}
	st := l.stripe(tenant)
	st.mu.Lock()
	defer st.mu.Unlock()
	b := st.buckets[tenant]
	if b == nil {
		spec := l.cfg.TenantSpec(tenant)
		b = &bucket{spec: spec, tokens: float64(spec.Burst), last: now}
		st.buckets[tenant] = b
	}
	if b.spec.Rate <= 0 {
		return true, 0
	}
	// Refill. Concurrent callers may observe slightly out-of-order wall
	// timestamps; a non-positive delta simply refills nothing.
	if d := now - b.last; d > 0 {
		b.tokens += d.Seconds() * b.spec.Rate
		if max := float64(b.spec.Burst); b.tokens > max {
			b.tokens = max
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.spec.Rate * float64(time.Second))
}
