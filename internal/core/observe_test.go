package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
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

// idle reports whether every container of f on its primary node is idle
// with its DLU queue quiet, so its runs are over, observed and published (a
// run is observed before its container goes back) and nothing it put is
// still shipping. It takes each idle container and hands it back: call it
// only when no instance of f may be acquiring one (settle).
func (f *fnState) idle() bool {
	var held []*cluster.Container
	for {
		c, ok := f.pools[0].Acquire(0)
		if !ok {
			break
		}
		held = append(held, c)
	}
	quiet := true
	for _, c := range held {
		quiet = quiet && c.DLUQuiet()
		f.pools[0].Release(c, 0)
	}
	return quiet && len(held) == f.primary().Containers(f.name)
}

// running is how many instances hold a slot of their function's cap, or
// wait for one: every run between its start and its container's return,
// whether it computes, sleeps out a throttle or cold-starts.
func (s *System) running() (n int64) {
	for _, f := range s.fnList {
		n += f.cap.load()
	}
	return n
}

// settle brings sys to rest: every request done, every container back in
// its pool (idle) and every DLU queue quiet. On clk it steps the clock
// (clock.Manual.Step) while something sleeps on it and no more instances
// run than sleep, so no run sees the clock move unless it may be one of the
// sleepers: a run's T_FLU stays its compute. It does not see a DLU daemon
// between reading the clock and parking, so a test waits for a pacing
// daemon to park (clock.Manual.Parked) before it hands the clock to settle.
// With clk nil — sys on the wall clock, or on one nothing sleeps on —
// settle only waits.
func settle(t *testing.T, sys *System, clk *clock.Manual) {
	t.Helper()
	until(t, func() bool {
		if sys.PendingInvocations() == 0 && sys.running() == 0 {
			rest := true
			for _, f := range sys.fnList {
				rest = rest && f.idle()
			}
			if rest {
				return true
			}
		}
		if clk != nil {
			if n := clk.Pending(); n > 0 && int64(n) >= sys.running() {
				clk.Step()
			}
		}
		return false
	}, "the system never came to rest")
}

// until waits for cond, yielding between checks, and fails the test with
// msg after ten seconds of wall time: the condition wait for what no
// channel announces. It sleeps on no clock.
func until(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		runtime.Gosched()
	}
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
