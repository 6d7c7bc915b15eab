package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wmm"
)

// transitionLog records the prober's health transitions for assertion.
type transitionLog struct {
	mu  sync.Mutex
	seq []NodeHealth
}

func (l *transitionLog) note(_ string, to NodeHealth) {
	l.mu.Lock()
	l.seq = append(l.seq, to)
	l.mu.Unlock()
}

func (l *transitionLog) snapshot() []NodeHealth {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]NodeHealth(nil), l.seq...)
}

func waitHealth(t *testing.T, n *Node, want NodeHealth) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n.Health() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node %s stuck at %v, want %v", n.Name, n.Health(), want)
}

// TestProberDrivesHealthFromTimeouts: a killed worker process (here: a
// closed TCP server) is detected by missed heartbeats alone — the prober
// demotes the node Draining on the first miss, Down after DownAfter misses,
// and recovers it when the server comes back. No FailNode calls anywhere.
func TestProberDrivesHealthFromTimeouts(t *testing.T) {
	sink := wmm.NewSink(wmm.Options{})
	srv := transport.NewServer(transport.ServerOptions{})
	srv.Host("r1", sink)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := transport.DialTCP(context.Background(), addr, "r1", transport.DialOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cl := NewCluster(nil)
	remote := NewRemoteNode("r1", c, false, Options{})
	if err := cl.AddNode(remote); err != nil {
		t.Fatal(err)
	}
	local := NewNode("l1", Options{})
	if err := cl.AddNode(local); err != nil {
		t.Fatal(err)
	}

	var log transitionLog
	stop := cl.StartProber(ProberOptions{
		Interval:     50 * time.Millisecond,
		DownAfter:    3,
		OnTransition: log.note,
	})
	defer stop()

	// Healthy server: the node must stay Up across several probe rounds.
	time.Sleep(100 * time.Millisecond)
	if got := remote.Health(); got != Up {
		t.Fatalf("healthy remote probed to %v", got)
	}
	if got := local.Health(); got != Up {
		t.Fatalf("local node touched by prober: %v", got)
	}

	// Kill the worker. Missed probes must walk the state machine down.
	srv.Close()
	waitHealth(t, remote, Draining)
	waitHealth(t, remote, Down)

	// Resurrect on the same address; the prober must recover the node.
	srv2 := transport.NewServer(transport.ServerOptions{})
	srv2.Host("r1", sink)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	waitHealth(t, remote, Up)

	seq := log.snapshot()
	want := []NodeHealth{Draining, Down, Up}
	if len(seq) != len(want) {
		t.Fatalf("transitions = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", seq, want)
		}
	}

	// The local node must never have been probed into any other state.
	if got := local.Health(); got != Up {
		t.Fatalf("local node ended at %v", got)
	}
}
