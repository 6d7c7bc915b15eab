//repolint:plane optional plane: nil objects must stay inert; see planegate

// Package qos is the simulation plane's admission & QoS model: multi-tenant
// overload control (the QoS field of simcluster.Config, `benchrunner -exp
// overload` and the qos scenarios). Under sustained overload a single hot
// tenant grows every tenant's latency without bound; this package bounds
// that failure mode per tenant with three cooperating mechanisms, all off
// unless a simulation opts in:
//
//   - Admission (Limiter): a per-tenant token bucket, lock-striped like the
//     Wait-Match Memory, refuses requests beyond a tenant's provisioned rate
//     with a typed ErrOverloaded carrying a retry-after hint.
//   - Scheduling (Stride): a weighted-fair queue in front of execution.
//     While slots are free a grant is immediate; once they are taken,
//     queued work drains by tenant weight (stride-scheduled virtual time)
//     instead of FIFO, with optional per-tenant in-flight caps.
//   - Shedding (Governor): the governor reads the overload signals — Eq. 1
//     transfer pressure, Wait-Match Memory occupancy, and pending-queue
//     depth — and, while the system is overloaded, sheds the tenants whose
//     demand exceeds their fair share, again with ErrOverloaded, before
//     they consume containers.
//
// Timestamps are explicit time.Duration values (virtual time), and the
// Governor consumes an explicit Sample instead of reaching into the
// simulation. The runtime engine (internal/core) has no tenants and no
// admission gate.
package qos

import (
	"fmt"
	"time"
)

// DefaultTenant is the tenant id untagged traffic maps to.
const DefaultTenant = "default"

// Tenant is one tenant's admission and scheduling envelope.
type Tenant struct {
	// Weight is the tenant's fair-share weight (1 when <= 0). Queued work
	// drains proportionally to weight, and the governor's overload shedding
	// compares each tenant's demand against its weight share.
	Weight int
	// Rate is the admission token-bucket refill rate in requests/second;
	// <= 0 means no rate limit for the tenant.
	Rate float64
	// Burst is the bucket depth in requests (max(1, ceil(Rate)) when 0).
	Burst int
	// MaxInFlight caps the tenant's concurrently executing instances;
	// <= 0 leaves the tenant bounded only by the queue capacity.
	MaxInFlight int
}

// withDefaults resolves the zero fields.
func (t Tenant) withDefaults() Tenant {
	if t.Weight <= 0 {
		t.Weight = 1
	}
	if t.Burst <= 0 {
		t.Burst = int(t.Rate)
		if float64(t.Burst) < t.Rate {
			t.Burst++
		}
		if t.Burst < 1 {
			t.Burst = 1
		}
	}
	return t
}

// DefaultGovernorInterval is the governor sampling tick used when
// Config.GovernorInterval is zero.
const DefaultGovernorInterval = 50 * time.Millisecond

// DefaultOverFactor is how far past its weight share a tenant's demand must
// be before an overloaded engine sheds it. (With two equal-weight tenants a
// factor of 1.5 sheds the one holding more than 3/4 of the engine's work;
// a factor of 2 could never fire there, since 2x a half is the whole pie.)
const DefaultOverFactor = 1.5

// Config assembles the QoS plane.
type Config struct {
	// Tenants configures the named tenants; ids not listed here (including
	// DefaultTenant, unless listed) fall back to Default.
	Tenants map[string]Tenant
	// Default is the envelope for unlisted tenants. The zero value means
	// weight 1, no rate limit, no in-flight cap.
	Default Tenant
	// Capacity is the fair queue's total concurrent-execution grant count.
	// Zero lets the simulation substitute a width derived from its worker
	// count.
	Capacity int
	// GovernorInterval is the shedding governor's sampling tick
	// (DefaultGovernorInterval when 0); negative disables the governor.
	GovernorInterval time.Duration
	// ShedQueueDepth is the pending-queue depth past which the engine is
	// considered overloaded regardless of other signals (4x Capacity when 0).
	ShedQueueDepth int
	// MaxResidentBytes sheds when the engine's Wait-Match Memory resident
	// bytes exceed it; 0 disables the occupancy signal.
	MaxResidentBytes int64
	// OverFactor is the demand-to-fair-share ratio past which an overloaded
	// engine sheds a tenant (DefaultOverFactor when 0).
	OverFactor float64
	// RetryAfter is the hint carried on ErrOverloaded sheds (twice the
	// governor interval when 0).
	RetryAfter time.Duration
}

// WithDefaults resolves the zero fields; width is the fair queue capacity
// fallback (the simulation's worker-derived width).
func (c Config) WithDefaults(width int) Config {
	if c.Capacity <= 0 {
		c.Capacity = width
	}
	if c.Capacity <= 0 {
		c.Capacity = 1
	}
	if c.GovernorInterval == 0 {
		c.GovernorInterval = DefaultGovernorInterval
	}
	if c.ShedQueueDepth <= 0 {
		c.ShedQueueDepth = 4 * c.Capacity
	}
	if c.OverFactor <= 0 {
		c.OverFactor = DefaultOverFactor
	}
	if c.RetryAfter <= 0 {
		iv := c.GovernorInterval
		if iv <= 0 {
			iv = DefaultGovernorInterval
		}
		c.RetryAfter = 2 * iv
	}
	return c
}

// TenantSpec resolves the envelope for a tenant id (named, or Default).
func (c *Config) TenantSpec(tenant string) Tenant {
	if c == nil {
		return Tenant{}.withDefaults()
	}
	if t, ok := c.Tenants[tenant]; ok {
		return t.withDefaults()
	}
	return c.Default.withDefaults()
}

// Cause classifies an overload rejection.
type Cause int

// Rejection causes.
const (
	// CauseAdmission: the tenant's token bucket is empty (sustained rate
	// beyond its provisioned requests/second).
	CauseAdmission Cause = iota
	// CauseShed: the governor is shedding the tenant (the engine is
	// overloaded and the tenant's demand exceeds its fair share).
	CauseShed
)

// String names the cause.
func (c Cause) String() string {
	if c == CauseShed {
		return "shed"
	}
	return "admission"
}

// ErrOverloaded reports a refused invocation. Callers should back off for
// at least RetryAfter before retrying; well-behaved tenants are not shed,
// so the error is actionable per tenant, not global.
type ErrOverloaded struct {
	Tenant     string
	Cause      Cause
	RetryAfter time.Duration
}

// Error implements error.
func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("qos: tenant %q rejected (%s), retry after %v",
		e.Tenant, e.Cause, e.RetryAfter)
}
