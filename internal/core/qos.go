package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/qos"
	"repro/internal/trace"
)

// This file wires the admission & QoS plane (internal/qos) through the
// engine. With Config.QoS nil — the default — none of it is on any path:
// Invoke admits unconditionally, runInstance takes no execution grant, and
// no governor goroutine runs, so the engine is byte-for-byte the QoS-less
// one. With it set, three gates activate:
//
//   - Invoke: the governor's shed set and the tenant's token bucket are
//     consulted before a request id is even assigned; a refusal is a typed
//     *qos.ErrOverloaded with a retry-after hint, counted in Rejections and
//     traced as a Shed event.
//   - runInstance: every instance execution holds a weighted-fair queue
//     grant (qos.FairQueue) for its duration. While the executor pool and
//     the container free-lists keep up, the grant is immediate; once they
//     saturate, parked work drains by tenant weight instead of FIFO.
//   - a governor goroutine samples Eq. 1 transfer pressure, Wait-Match
//     Memory occupancy and the fair queue's depth every GovernorInterval,
//     and sheds over-limit tenants while the engine is overloaded.

// InvokeOpts carries per-request options for InvokeWith.
type InvokeOpts struct {
	// Tenant attributes the request to a QoS tenant; empty maps to
	// qos.DefaultTenant. Ignored (no admission, no tagging) when the
	// system's Config.QoS is nil.
	Tenant string
}

// Rejections counts the invocations the system refused, by cause. The
// shutdown and invalid-input counts are maintained unconditionally (they
// predate the QoS plane but were previously invisible to callers — the
// rejected-Invoke teardown in InvokeWith); admission and overload counts
// can only grow with Config.QoS set.
type Rejections struct {
	// Admission: the tenant's token bucket was empty.
	Admission int64
	// Overload: the governor was shedding the tenant.
	Overload int64
	// Shutdown: Invoke after Shutdown.
	Shutdown int64
	// Invalid: the input failed tracker validation; the invocation was
	// registered and immediately torn down.
	Invalid int64
}

// Total sums all rejection causes.
func (r Rejections) Total() int64 {
	return r.Admission + r.Overload + r.Shutdown + r.Invalid
}

// Rejections returns the system's cumulative rejection counters.
func (s *System) Rejections() Rejections {
	return Rejections{
		Admission: s.rejAdmission.Load(),
		Overload:  s.rejOverload.Load(),
		Shutdown:  s.rejShutdown.Load(),
		Invalid:   s.rejInvalid.Load(),
	}
}

// qosPlane is the engine's assembled QoS state (nil when Config.QoS is).
type qosPlane struct {
	cfg      qos.Config
	limiter  *qos.Limiter
	queue    *qos.FairQueue
	governor *qos.Governor
}

// newQoSPlane resolves cfg against the executor width and assembles the
// plane.
func newQoSPlane(cfg qos.Config, executorWidth int) *qosPlane {
	resolved := cfg.WithDefaults(executorWidth)
	p := &qosPlane{cfg: resolved}
	p.limiter = qos.NewLimiter(&p.cfg)
	p.queue = qos.NewFairQueue(&p.cfg)
	p.governor = qos.NewGovernor(&p.cfg)
	return p
}

// admit runs the QoS admission gates for one invocation. Caller holds the
// closeMu read lock; s.qos is non-nil.
func (s *System) admit(tenant string) error {
	if ra, shed := s.qos.governor.Shedding(tenant); shed {
		s.rejOverload.Add(1)
		obsRejOverload.Inc(0)
		obsQoSSheds.get(tenant).Inc(0)
		if s.cfg.Trace != nil {
			s.cfg.Trace.Append(trace.Event{At: s.now(), Kind: trace.Shed, Note: "tenant " + tenant + ": shed"})
		}
		return &qos.ErrOverloaded{Tenant: tenant, Cause: qos.CauseShed, RetryAfter: ra}
	}
	if ok, ra := s.qos.limiter.Allow(s.now(), tenant); !ok {
		s.rejAdmission.Add(1)
		obsRejAdmission.Inc(0)
		obsQoSThrottles.get(tenant).Inc(0)
		if s.cfg.Trace != nil {
			s.cfg.Trace.Append(trace.Event{At: s.now(), Kind: trace.Shed, Note: "tenant " + tenant + ": admission"})
		}
		return &qos.ErrOverloaded{Tenant: tenant, Cause: qos.CauseAdmission, RetryAfter: ra}
	}
	obsQoSAdmits.get(tenant).Inc(0)
	return nil
}

// governor is the background shedding loop: one Sample per tick.
func (s *System) governor() {
	defer s.bg.Done()
	for {
		select {
		case <-s.stopGovernor:
			return
		case <-s.clk.After(s.qos.cfg.GovernorInterval):
			s.governTick()
		}
	}
}

// governTick assembles one overload sample — worst Eq. 1 pressure across
// the functions, sink occupancy across the nodes, and the fair queue's
// per-tenant depths — and hands it to the governor.
func (s *System) governTick() {
	var maxPressure time.Duration
	for _, st := range s.fnList {
		if p := s.transferPressure(st); p > maxPressure {
			maxPressure = p
		}
	}
	var resident int64
	for _, n := range s.allNodes {
		// MemBytes is one atomic load per node (remote sinks report the
		// heartbeat-piggybacked gauge).
		resident += n.SinkMemBytes()
	}
	waiting, inflight, tenants := s.qos.queue.Snapshot()
	s.qos.governor.Update(qos.Sample{
		At:            s.now(),
		Pressure:      maxPressure,
		ResidentBytes: resident,
		QueueDepth:    waiting,
		InFlight:      inflight,
		Capacity:      s.qos.queue.Capacity(),
		Tenants:       tenants,
	})
}

// transferPressure estimates fn's Eq. 1 pressure (α·Size/Bw − T_FLU) from
// its running put-size and FLU-time averages: positive means the function
// is transfer-bound. The QoS governor's overload detection reads it.
func (s *System) transferPressure(st *fnState) time.Duration {
	n := st.putCount.Load()
	if n == 0 {
		return 0
	}
	bw := st.spec.BandwidthBps()
	if bw <= 0 {
		return 0
	}
	avgBytes := float64(st.putBytes.Load()) / float64(n)
	return cluster.Pressure(s.cfg.Alpha, avgBytes, bw, st.avg())
}

// ShedSet returns the tenants the governor is currently shedding (nil when
// QoS is off or nothing is shed).
func (s *System) ShedSet() []string {
	if s.qos == nil {
		return nil
	}
	return s.qos.governor.ShedSet()
}

// QueueDepth returns the fair queue's parked-execution count (0 when QoS
// is off).
func (s *System) QueueDepth() int {
	if s.qos == nil {
		return 0
	}
	return s.qos.queue.Waiting()
}

// tenantLoads is one node's per-tenant in-flight instance counters. The
// tenant set is small and stable, so a read-mostly map of atomics behind an
// RWMutex keeps the hot path at one read-lock + one atomic add.
type tenantLoads struct {
	mu sync.RWMutex
	m  map[string]*atomic.Int64
}

func newTenantLoads() *tenantLoads {
	return &tenantLoads{m: make(map[string]*atomic.Int64)}
}

// counter resolves (or creates) the tenant's counter.
func (tl *tenantLoads) counter(tenant string) *atomic.Int64 {
	tl.mu.RLock()
	c := tl.m[tenant]
	tl.mu.RUnlock()
	if c != nil {
		return c
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if c = tl.m[tenant]; c == nil {
		c = new(atomic.Int64)
		tl.m[tenant] = c
	}
	return c
}

// load reads the tenant's in-flight count without creating a counter.
func (tl *tenantLoads) load(tenant string) int64 {
	tl.mu.RLock()
	c := tl.m[tenant]
	tl.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// replicaLoad is the load reading replica selection minimizes: the node's
// in-flight instances, plus — under QoS — the pinning tenant's own
// in-flight there, so a hot tenant's pressure spreads across replicas
// instead of stacking on the node it already saturates while light tenants
// keep seeing mostly-global load.
func (s *System) replicaLoad(n *cluster.Node, tenant string) int64 {
	l := s.nodeLoad[n].Load()
	if s.qos != nil && tenant != "" && s.nodeTenantLoad != nil {
		l += s.nodeTenantLoad[n].load(tenant)
	}
	return l
}
