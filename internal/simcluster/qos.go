package simcluster

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file drives the admission & QoS plane's own decision code
// (internal/qos) from virtual time: the qos.Config tenant envelopes, the
// qos.Limiter token buckets, the qos.Governor shed logic and the qos.Stride
// weighted-fair scheduler. A parked request process waits on a sim.Event.
// Two modelling choices, both forced by the simulation model:
//
//   - the unit of fair scheduling is the request, not the function
//     instance (the sim's dispatchers own instance-level scheduling);
//   - the governor is evaluated at queue transitions (admission attempts
//     and releases) instead of on a timer: a self-rescheduling tick would
//     keep the event horizon open forever, and between transitions none of
//     its inputs change.
//
// Every QoS code path is gated on s.cfg.QoS being non-nil, so a QoS-less
// run is event-for-event identical to the classic engine.

// TenantResult is one tenant's slice of a Result.
type TenantResult struct {
	// Issued counts arrivals attributed to the tenant; Admitted the ones
	// that entered execution (immediately or after queueing); Throttled the
	// token-bucket refusals; Shed the governor refusals; Abandoned the
	// requests that timed out while still parked in the fair queue (never
	// admitted). Issued = Admitted + Throttled + Shed + Abandoned.
	Issued    int64
	Admitted  int64
	Throttled int64
	Shed      int64
	Abandoned int64
	// Completed/Failed split the admitted requests' outcomes.
	Completed int64
	Failed    int64
	// Latencies samples the tenant's end-to-end latencies (queueing
	// included); GoodputRPM is completed requests per simulated minute.
	Latencies  *metrics.Sample
	GoodputRPM float64
}

// simTenant is one tenant's accounting (its scheduling state lives in the
// stride scheduler).
type simTenant struct {
	issued, admitted, throttled, shed, abandoned int64
	completed, failed                            int64
	lat                                          *metrics.Sample
}

// simQoS is the assembled plane (nil on the Sim when cfg.QoS is).
type simQoS struct {
	cfg      qos.Config
	limiter  *qos.Limiter
	governor *qos.Governor
	// stride parks requests; a parked request waits on its qosWake event.
	stride  *qos.Stride[*request]
	tenants map[string]*simTenant
}

// defaultSimQoSCapacity derives the request-level admission capacity from
// the worker count when cfg.QoS leaves Capacity zero.
func defaultSimQoSCapacity(workers int) int { return 8 * workers }

// armQoS assembles the plane (called from New).
func (s *Sim) armQoS() {
	if s.cfg.QoS == nil {
		return
	}
	cfg := s.cfg.QoS.WithDefaults(defaultSimQoSCapacity(s.cfg.Workers))
	s.qos = &simQoS{cfg: cfg, tenants: make(map[string]*simTenant)}
	s.qos.limiter = qos.NewLimiter(&s.qos.cfg)
	s.qos.governor = qos.NewGovernor(&s.qos.cfg)
	s.qos.stride = qos.NewStride[*request](&s.qos.cfg)
}

// tenantOf resolves (or creates) a tenant's accounting.
func (q *simQoS) tenantOf(name string) *simTenant {
	t := q.tenants[name]
	if t == nil {
		t = &simTenant{lat: metrics.NewSample()}
		q.tenants[name] = t
	}
	return t
}

// qosGovern refreshes the governor's shed set from the current overload
// signals: worst Eq. 1 pressure estimate, sink occupancy, and the fair
// queue's depth. Called at every queue transition. A negative
// GovernorInterval disables the governor (admission only), leaving the
// shed set empty forever.
func (s *Sim) qosGovern() {
	q := s.qos
	if q.cfg.GovernorInterval < 0 {
		return
	}
	var resident int64
	for _, n := range s.nodes {
		resident += n.sink.MemBytes() // incl. replay-retained entries
	}
	waiting, inflight, tenants := q.stride.Snapshot()
	q.governor.Update(qos.Sample{
		At:            s.env.Now(),
		Pressure:      s.maxTransferPressure(),
		ResidentBytes: resident,
		QueueDepth:    waiting,
		InFlight:      inflight,
		Capacity:      q.cfg.Capacity,
		Tenants:       tenants,
	})
}

// maxTransferPressure is the governor's Eq. 1 input: the worst
// cluster.Pressure over the functions, each from its average declared
// output size, the container bandwidth and its observed FLU average.
func (s *Sim) maxTransferPressure() time.Duration {
	bw := s.cfg.containerBps()
	if bw <= 0 {
		return 0
	}
	var max time.Duration
	for fn, prof := range s.profOf {
		f, ok := prof.Workflow.Function(fn)
		if !ok || len(f.Outputs) == 0 {
			continue
		}
		var total int64
		var n int64
		for _, o := range f.Outputs {
			if o.Name == "" {
				continue
			}
			total += prof.SizeOf(fn, o.Name)
			n++
		}
		if n == 0 {
			continue
		}
		avg := float64(total) / float64(n)
		p := cluster.Pressure(s.cfg.Alpha, avg, bw, s.fluAvg[fn].avg())
		if p > max {
			max = p
		}
	}
	return max
}

// qosAdmit runs the admission gates for one request; reports whether the
// request may proceed. A refusal (or a request that failed while parked)
// has its done event triggered and never touches a container or a NIC. May
// block the calling process in the weighted-fair queue.
func (s *Sim) qosAdmit(p *sim.Proc, req *request) bool {
	q := s.qos
	t := q.tenantOf(req.tenant)
	t.issued++
	s.qosGovern()
	if ra, shed := q.governor.Shedding(req.tenant); shed {
		t.shed++
		s.traceEvent(trace.Shed, req, "", 0, req.tenant+": shed")
		req.done.Trigger(&qos.ErrOverloaded{Tenant: req.tenant, Cause: qos.CauseShed, RetryAfter: ra})
		return false
	}
	if ok, ra := q.limiter.Allow(s.env.Now(), req.tenant); !ok {
		t.throttled++
		s.traceEvent(trace.Shed, req, "", 0, req.tenant+": admission")
		req.done.Trigger(&qos.ErrOverloaded{Tenant: req.tenant, Cause: qos.CauseAdmission, RetryAfter: ra})
		return false
	}
	if q.stride.Acquire(req.tenant) {
		t.admitted++
		req.qosHeld = true
		return true
	}
	req.qosWake = sim.NewEvent(s.env)
	q.stride.Park(req.tenant, req)
	if granted, _ := p.Wait(req.qosWake).(bool); !granted {
		// Timed out while parked: qosAbandon woke us without a slot; done is
		// already triggered.
		return false
	}
	t.admitted++
	return true
}

// qosRelease returns a request's slot (no-op unless it holds one) and wakes
// the parked requests the stride scheduler grants in its place.
func (s *Sim) qosRelease(req *request) {
	if s.qos == nil || !req.qosHeld {
		return
	}
	req.qosHeld = false
	s.qos.stride.Release(req.tenant)
	s.qosGovern()
	for w, ok := s.qos.stride.Next(); ok; w, ok = s.qos.stride.Next() {
		w.qosHeld = true
		w.qosWake.Trigger(true)
	}
}

// qosComplete folds a finished request into its tenant's accounting.
func (s *Sim) qosComplete(req *request, lat time.Duration) {
	if s.qos == nil || req.tenant == "" {
		return
	}
	t := s.qos.tenantOf(req.tenant)
	t.completed++
	t.lat.AddDuration(lat)
}

// qosFail folds a failed (timed-out) request into its tenant's accounting.
// Only admitted requests (still holding their slot at this point — fail
// releases it afterwards) count as Failed; a request that timed out while
// parked was already accounted Abandoned by qosAbandon.
func (s *Sim) qosFail(req *request) {
	if s.qos == nil || req.tenant == "" || !req.qosHeld {
		return
	}
	s.qos.tenantOf(req.tenant).failed++
}

// qosAbandon removes a failed request's parked waiter, if any: dead demand
// must not keep inflating the governor's queue-depth signal (a stale
// waiter would otherwise sit in the sample until some release dispatched
// past it). The parked process wakes ungranted.
func (s *Sim) qosAbandon(req *request) {
	if s.qos == nil || req.tenant == "" {
		return
	}
	if s.qos.stride.Abandon(req.tenant, req) {
		s.qos.tenants[req.tenant].abandoned++
		req.qosWake.Trigger(nil)
	}
}

// tenantResults assembles the per-tenant Result slice.
func (s *Sim) tenantResults(horizon time.Duration) map[string]*TenantResult {
	if s.qos == nil || len(s.qos.tenants) == 0 {
		return nil
	}
	out := make(map[string]*TenantResult, len(s.qos.tenants))
	for name, t := range s.qos.tenants {
		tr := &TenantResult{
			Issued:    t.issued,
			Admitted:  t.admitted,
			Throttled: t.throttled,
			Shed:      t.shed,
			Abandoned: t.abandoned,
			Completed: t.completed,
			Failed:    t.failed,
			Latencies: t.lat,
		}
		if horizon > 0 {
			tr.GoodputRPM = float64(t.completed) / horizon.Minutes()
		}
		out[name] = tr
	}
	return out
}
