package qos

// Stride is the weighted-fair slot scheduler both planes run: up to
// Capacity grants are outstanding at once, and once the slots are taken
// parked waiters are granted in stride-scheduled virtual-time order — each
// grant advances the tenant's virtual finish time by 1/weight and the
// earliest finish time is granted next, so over any backlogged interval
// tenants drain proportionally to their weights, FIFO within a tenant.
//
// It never blocks and is not safe for concurrent use: W is the caller's
// opaque handle for a parked acquisition (the simulation parks requests
// woken by sim.Events).
type Stride[W comparable] struct {
	cfg      *Config
	inflight int
	waiting  int
	vtime    float64
	tenants  map[string]*strideTenant[W]
}

// strideTenant is one tenant's scheduling state, kept only while the tenant
// has grants or waiters.
type strideTenant[W comparable] struct {
	name        string
	weight      int
	maxInFlight int
	inflight    int
	vfinish     float64
	waitq       []W
}

// NewStride returns a scheduler granting at most cfg.Capacity slots.
func NewStride[W comparable](cfg *Config) *Stride[W] {
	return &Stride[W]{cfg: cfg, tenants: make(map[string]*strideTenant[W])}
}

// tenant resolves (or creates) the tenant's scheduling state.
func (s *Stride[W]) tenant(name string) *strideTenant[W] {
	t := s.tenants[name]
	if t == nil {
		spec := s.cfg.TenantSpec(name)
		t = &strideTenant[W]{name: name, weight: spec.Weight, maxInFlight: spec.MaxInFlight}
		s.tenants[name] = t
	}
	return t
}

// capped reports whether the tenant is at its in-flight cap: its parked work
// waits for its own releases, not the engine's.
func (t *strideTenant[W]) capped() bool {
	return t.maxInFlight > 0 && t.inflight >= t.maxInFlight
}

// grant hands the tenant one slot and advances the virtual clock: the grant
// starts at max(tenant finish, vtime) — an idle tenant joins at the current
// virtual time rather than collecting credit for its idle past — and
// finishes 1/weight later.
func (s *Stride[W]) grant(t *strideTenant[W]) {
	s.inflight++
	t.inflight++
	start := t.vfinish
	if start < s.vtime {
		start = s.vtime
	}
	t.vfinish = start + 1/float64(t.weight)
	s.vtime = start
}

// Acquire grants the tenant a slot if no queue jump is possible: a slot is
// free, the tenant is under its cap, and none of its earlier arrivals is
// still parked. On false the caller must Park a waiter.
func (s *Stride[W]) Acquire(tenant string) bool {
	if s == nil {
		return true // plane disabled: every slot is free
	}
	t := s.tenant(tenant)
	if s.inflight >= s.cfg.Capacity || t.capped() || len(t.waitq) > 0 {
		return false
	}
	s.grant(t)
	return true
}

// Park queues w behind the tenant's earlier arrivals, after Acquire refused.
// A later Next hands w back once it holds a slot.
func (s *Stride[W]) Park(tenant string, w W) {
	if s == nil {
		return
	}
	t := s.tenant(tenant)
	t.waitq = append(t.waitq, w)
	s.waiting++
}

// Release returns one of the tenant's slots; the caller then drains Next. A
// tenant left fully idle is dropped from the table, which keeps the table —
// scanned per grant — bounded by the tenants currently active rather than
// every id ever seen. Its finish time goes with it: a tenant that rejoins
// restarts at the current virtual time, forgetting at most the one stride
// its last grant ran ahead of the clock.
func (s *Stride[W]) Release(tenant string) {
	if s == nil {
		return
	}
	t := s.tenants[tenant]
	t.inflight--
	s.inflight--
	s.evictIdle(t)
}

// Next grants a free slot to the parked waiter that is first in virtual-
// finish order (tenant name breaks ties; tenants at their cap are skipped)
// and returns it for the caller to wake. ok=false when no slot is free or
// no eligible waiter is parked.
func (s *Stride[W]) Next() (w W, ok bool) {
	if s == nil || s.inflight >= s.cfg.Capacity {
		return w, false
	}
	var best *strideTenant[W]
	for _, t := range s.tenants {
		if len(t.waitq) == 0 || t.capped() {
			continue
		}
		if best == nil || t.vfinish < best.vfinish ||
			(t.vfinish == best.vfinish && t.name < best.name) {
			best = t
		}
	}
	if best == nil {
		return w, false
	}
	var zero W
	w = best.waitq[0]
	best.waitq[0] = zero
	best.waitq = best.waitq[1:]
	s.waiting--
	s.grant(best)
	return w, true
}

// Abandon removes the parked waiter w without granting it (its caller gave
// up); reports whether w was still parked.
func (s *Stride[W]) Abandon(tenant string, w W) bool {
	if s == nil {
		return false
	}
	t := s.tenants[tenant]
	if t == nil {
		return false
	}
	for i, cand := range t.waitq {
		if cand == w {
			var zero W
			copy(t.waitq[i:], t.waitq[i+1:])
			t.waitq[len(t.waitq)-1] = zero
			t.waitq = t.waitq[:len(t.waitq)-1]
			s.waiting--
			s.evictIdle(t)
			return true
		}
	}
	return false
}

// evictIdle drops a tenant that holds no grant and parks no waiter.
func (s *Stride[W]) evictIdle(t *strideTenant[W]) {
	if t.inflight == 0 && len(t.waitq) == 0 {
		delete(s.tenants, t.name)
	}
}

// TenantLoad is one tenant's queue occupancy in a Snapshot.
type TenantLoad struct {
	Waiting  int
	InFlight int
	Weight   int
}

// Snapshot reads the occupancy for the governor: total parked and in-flight
// counts plus the per-tenant breakdown.
func (s *Stride[W]) Snapshot() (waiting, inflight int, perTenant map[string]TenantLoad) {
	if s == nil {
		return 0, 0, nil
	}
	perTenant = make(map[string]TenantLoad, len(s.tenants))
	for name, t := range s.tenants {
		perTenant[name] = TenantLoad{Waiting: len(t.waitq), InFlight: t.inflight, Weight: t.weight}
	}
	return s.waiting, s.inflight, perTenant
}
