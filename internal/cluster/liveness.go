package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/clock"
)

// This file is the liveness plane for remote nodes: a prober that pings
// every remote node's transport on a fixed cadence and drives the health
// state machine (health.go) from real timeouts — no FailNode calls, no
// injected booleans. A missed heartbeat demotes the node to Draining (no
// new pins, in-flight work finishes if the node is merely slow); enough
// consecutive misses mark it Down via MarkUnreachable (repair + replay take
// over); a successful probe of a non-Up node recovers it.

// ProberOptions configures StartProber.
type ProberOptions struct {
	// Interval is the probe cadence (default 200ms); it also bounds one
	// probe.
	Interval time.Duration
	// DownAfter is the consecutive-miss count that marks the node Down
	// (default 3).
	DownAfter int
	// OnTransition, when non-nil, observes every health transition the
	// prober makes (tests, logs).
	OnTransition func(node string, to NodeHealth)
}

func (o ProberOptions) withDefaults() ProberOptions {
	if o.Interval <= 0 {
		o.Interval = 200 * time.Millisecond
	}
	if o.DownAfter <= 0 {
		o.DownAfter = 3
	}
	return o
}

// StartProber probes every remote node currently registered and returns a
// stop function (idempotent, blocks until the prober goroutine exits).
// Local nodes are skipped: their transport cannot fail, so probing them
// would only mask bugs. Nodes registered after the prober starts are picked
// up on the next tick.
func (c *Cluster) StartProber(opts ProberOptions) (stop func()) {
	opts = opts.withDefaults()
	done := make(chan struct{})
	exited := make(chan struct{})
	go c.probeLoop(opts, done, exited)
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-exited
		})
	}
}

func (c *Cluster) probeLoop(opts ProberOptions, done, exited chan struct{}) {
	defer close(exited)
	clk := clock.NewWall()
	misses := make(map[string]int)
	for {
		select {
		case <-done:
			return
		case <-clk.After(opts.Interval):
		}
		for _, n := range c.nodeList() {
			if !n.Remote() {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), opts.Interval)
			err := n.Ping(ctx)
			cancel()
			obsProbes.Inc(0)
			if err != nil {
				obsProbeFailures.Inc(0)
			}
			if err == nil {
				misses[n.Name] = 0
				if n.Health() != Up {
					c.RecoverNode(n.Name) //nolint:errcheck // node came from nodeList
					if opts.OnTransition != nil {
						opts.OnTransition(n.Name, Up)
					}
				}
				continue
			}
			misses[n.Name]++
			switch {
			case misses[n.Name] >= opts.DownAfter && n.Health() != Down:
				c.MarkUnreachable(n.Name) //nolint:errcheck // node came from nodeList
				if opts.OnTransition != nil {
					opts.OnTransition(n.Name, Down)
				}
			case misses[n.Name] >= 1 && n.Health() == Up: // the first missed heartbeat stops new pins
				c.DrainNode(n.Name) //nolint:errcheck // node came from nodeList
				if opts.OnTransition != nil {
					opts.OnTransition(n.Name, Draining)
				}
			}
		}
	}
}
