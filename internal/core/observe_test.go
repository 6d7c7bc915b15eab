package core

import (
	"slices"
	"time"
)

// Observers the package's tests read; the engine never calls them.

// Replicas returns the node names hosting fn, primary first.
func (s *System) Replicas(fn string) []string {
	st, ok := s.fns[fn]
	if !ok {
		return nil
	}
	out := make([]string, len(st.replicas))
	for i, n := range st.replicas {
		out[i] = n.Name
	}
	return out
}

// ReqID returns the identifier of the request this run belongs to,
// "req-<n>", formatted on first use (Invocation.ReqID).
func (c *Context) ReqID() string { return c.req.inv.ReqID() }

// FLUAvg returns the running average execution time of fn (T_FLU).
func (s *System) FLUAvg(fn string) time.Duration {
	if st, ok := s.fns[fn]; ok {
		return st.avg()
	}
	return 0
}

// Replays returns how many of this request's shipments were replayed after
// node deaths. Valid any time; settles once Done is closed.
func (inv *Invocation) Replays() int { return int(inv.replays.Load()) }

// PinnedNode returns the node name fn is currently pinned to for this
// request, if pinned yet.
func (inv *Invocation) PinnedNode(fn string) (string, bool) {
	for _, p := range inv.pinsNow() {
		if p.fn == fn {
			return p.node.Name, true
		}
	}
	return "", false
}

// PinnedNodes returns the node names this request's route pins currently
// address, in pin order (empty on the static path, which has no pins).
func (inv *Invocation) PinnedNodes() []string {
	pins := inv.pinsNow()
	out := make([]string, len(pins))
	for i := range pins {
		out[i] = pins[i].node.Name
	}
	return out
}

// avg returns the running average FLU execution time (tflu).
func (f *fnState) avg() time.Duration {
	d, _ := f.tflu()
	return d
}

// pinsNow returns the request's route pins: copied out of the live request,
// or as finish left them.
func (inv *Invocation) pinsNow() []routePin {
	inv.mu.Lock()
	r := inv.req
	if r == nil {
		defer inv.mu.Unlock()
		return inv.pins
	}
	r.refs.Add(1) // unfinished, so the request's own reference is still held
	inv.mu.Unlock()
	r.mu.Lock()
	pins := slices.Clone(r.route)
	r.mu.Unlock()
	r.release()
	return pins
}

// tflu is the running average FLU execution time plus whether any execution
// has been observed yet: an average of zero is a measurement on a virtual
// clock and the lack of one otherwise. It sums the lanes, so it is exact.
func (f *fnState) tflu() (avg time.Duration, sampled bool) {
	n := f.fluCount.Load()
	if n == 0 {
		return 0, false
	}
	return time.Duration(f.fluNanos.Load() / n), true
}
