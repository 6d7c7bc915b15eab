package core

import (
	"time"

	"repro/internal/cluster"
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

// idle reports whether every container of f on its primary node is idle,
// so its runs are over, observed and published (a run is observed before its
// container goes back). It takes each idle container and hands it back.
func (f *fnState) idle() bool {
	var held []*cluster.Container
	for {
		c, ok := f.pools[0].Acquire(0)
		if !ok {
			break
		}
		held = append(held, c)
	}
	for _, c := range held {
		f.pools[0].Release(c, 0)
	}
	return len(held) == f.primary().Containers(f.name)
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

// node returns the name of the node this run executes on: an instance runs
// on its function's pin, so this is where the pin pointed when it started.
func (c *Context) node() string { return c.ctr.Node.Name }

// pinnedNode returns the node fn is pinned to for this run's request, if
// pinned yet. Valid while the handler runs (its job holds a reference).
func (c *Context) pinnedNode(fn string) (string, bool) {
	r := c.req
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.route {
		if r.route[i].fn == fn {
			return r.route[i].node.Name, true
		}
	}
	return "", false
}

// avg returns the running average FLU execution time (tflu).
func (f *fnState) avg() time.Duration {
	d, _ := f.tflu()
	return d
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
