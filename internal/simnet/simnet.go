// Package simnet models network bandwidth for the simulation plane.
//
// A Fabric carries Flows between Endpoints. Every endpoint has a capacity in
// bytes/second (the per-container limit enforced by Linux TC in the paper,
// or a node/storage NIC); a flow traverses one or more endpoints and all
// concurrent flows share each endpoint's capacity with max–min fairness.
// Flow rates are recomputed whenever a flow starts or finishes, which
// captures the contention at the backend storage node that throttles
// control-flow systems, and the per-container limits that motivate
// DataFlower's pressure-aware scaling.
package simnet

import (
	"math"
	"sort"
	"time"

	"repro/internal/sim"
)

// Endpoint is a capacity constraint traversed by flows: a container NIC, a
// node NIC, or a storage service's aggregate bandwidth.
type Endpoint struct {
	id       int64   // creation order; deterministic bottleneck tie-break
	capacity float64 // bytes per second; <= 0 means unlimited
}

// Flow is an in-flight transfer.
type flow struct {
	eps       []*Endpoint
	seq       int64 // start order; deterministic completion ordering
	remaining float64
	rate      float64
	done      *sim.Event
}

// Fabric owns endpoints and flows. All methods must be called from
// simulation (process or kernel) context.
type Fabric struct {
	env        *sim.Env
	flows      map[*flow]struct{}
	lastUpdate time.Duration
	gen        int64 // invalidates stale completion timers
	flowSeq    int64
	epSeq      int64
}

// NewFabric returns an empty fabric on env.
func NewFabric(env *sim.Env) *Fabric {
	return &Fabric{env: env, flows: make(map[*flow]struct{})}
}

// NewEndpoint creates an endpoint with the given capacity in bytes/second
// (<= 0 means unlimited).
func (f *Fabric) NewEndpoint(bytesPerSec float64) *Endpoint {
	f.epSeq++
	return &Endpoint{id: f.epSeq, capacity: bytesPerSec}
}

// Transfer moves size bytes across the given endpoints, blocking the calling
// process until the transfer completes. A zero or negative size completes
// immediately. The achieved rate is the max–min fair share across all
// endpoints for the lifetime of the flow.
func (f *Fabric) Transfer(p *sim.Proc, size int64, eps ...*Endpoint) {
	ev := f.StartTransfer(size, eps...)
	p.Wait(ev)
}

// StartTransfer begins an asynchronous transfer and returns an event that
// fires when it completes. Useful for the DLU daemon, which pumps several
// transfers concurrently.
func (f *Fabric) StartTransfer(size int64, eps ...*Endpoint) *sim.Event {
	ev := sim.NewEvent(f.env)
	if size <= 0 {
		ev.Trigger(nil)
		return ev
	}
	f.flowSeq++
	fl := &flow{
		eps:       eps,
		seq:       f.flowSeq,
		remaining: float64(size),
		done:      ev,
	}
	f.advance()
	f.flows[fl] = struct{}{}
	f.recompute()
	return ev
}

// advance applies progress at current rates since the last update.
func (f *Fabric) advance() {
	now := f.env.Now()
	dt := (now - f.lastUpdate).Seconds()
	f.lastUpdate = now
	if dt <= 0 {
		return
	}
	for fl := range f.flows {
		if math.IsInf(fl.rate, 1) {
			fl.remaining = 0
			continue
		}
		fl.remaining -= fl.rate * dt
		if fl.remaining < 0 {
			fl.remaining = 0
		}
	}
}

// recompute reassigns max–min fair rates, completes any finished flows, and
// schedules the next completion check.
func (f *Fabric) recompute() {
	f.finishDone()
	if len(f.flows) == 0 {
		f.gen++
		return
	}
	f.assignRates()
	// Schedule a timer for the earliest completion.
	next := math.Inf(1)
	for fl := range f.flows {
		if math.IsInf(fl.rate, 1) || fl.rate <= 0 {
			if math.IsInf(fl.rate, 1) {
				next = 0
			}
			continue
		}
		if t := fl.remaining / fl.rate; t < next {
			next = t
		}
	}
	f.gen++
	gen := f.gen
	if math.IsInf(next, 1) {
		return // all flows stalled (zero rate); a future recompute will unstick them
	}
	at := f.env.Now() + secondsToDuration(next)
	f.env.ScheduleAt(at, func() {
		if f.gen != gen {
			return // superseded by a newer recompute
		}
		f.advance()
		f.recompute()
	})
}

// finishDone completes flows with no remaining bytes, in start order:
// several flows can finish at the same instant (equal shares, equal
// sizes), and their waiters must wake in a deterministic order — map
// iteration here would leak randomness into the event sequence.
func (f *Fabric) finishDone() {
	var done []*flow
	for fl := range f.flows {
		if fl.remaining <= 1e-6 {
			done = append(done, fl)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].seq < done[j].seq })
	for _, fl := range done {
		delete(f.flows, fl)
		fl.done.Trigger(nil)
	}
}

// assignRates computes max–min fair rates by progressive filling: repeatedly
// find the most constrained endpoint, freeze its flows at the fair share,
// and continue with residual capacities.
func (f *Fabric) assignRates() {
	type epState struct {
		residual float64
		unfrozen int
	}
	states := make(map[*Endpoint]*epState)
	unfrozen := make(map[*flow]struct{}, len(f.flows))
	for fl := range f.flows {
		unfrozen[fl] = struct{}{}
		for _, ep := range fl.eps {
			if ep.capacity <= 0 {
				continue // unlimited endpoints never constrain
			}
			st, ok := states[ep]
			if !ok {
				st = &epState{residual: ep.capacity}
				states[ep] = st
			}
			st.unfrozen++
		}
	}
	for len(unfrozen) > 0 {
		// Find the bottleneck endpoint: minimum fair share among endpoints
		// with unfrozen flows.
		// Tie-break equal shares on endpoint creation order: with map
		// iteration the pick would differ run to run, and when tied
		// endpoints carry different flow sets the freeze order changes
		// the final rates.
		var bottleneck *Endpoint
		minShare := math.Inf(1)
		for ep, st := range states {
			if st.unfrozen == 0 {
				continue
			}
			share := st.residual / float64(st.unfrozen)
			if share < minShare || (share == minShare && (bottleneck == nil || ep.id < bottleneck.id)) {
				minShare = share
				bottleneck = ep
			}
		}
		if bottleneck == nil {
			// Remaining flows are entirely on unlimited endpoints.
			for fl := range unfrozen {
				fl.rate = math.Inf(1)
				delete(unfrozen, fl)
			}
			break
		}
		// Freeze every unfrozen flow through the bottleneck at minShare.
		for fl := range unfrozen {
			through := false
			for _, ep := range fl.eps {
				if ep == bottleneck {
					through = true
					break
				}
			}
			if !through {
				continue
			}
			fl.rate = minShare
			delete(unfrozen, fl)
			for _, ep := range fl.eps {
				st, ok := states[ep]
				if !ok {
					continue
				}
				st.residual -= minShare
				if st.residual < 0 {
					st.residual = 0
				}
				st.unfrozen--
			}
		}
	}
}

func secondsToDuration(s float64) time.Duration {
	if s < 0 {
		s = 0
	}
	d := time.Duration(s * float64(time.Second))
	// Guard against rounding making the timer fire a hair before the flow
	// actually finishes: round up by one nanosecond.
	return d + time.Nanosecond
}
