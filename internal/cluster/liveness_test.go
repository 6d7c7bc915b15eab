package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wmm"
)

// transitionLog records the prober's health transitions for assertion, and
// announces each on moved.
type transitionLog struct {
	mu    sync.Mutex
	seq   []NodeHealth
	moved chan struct{} // one slot: a transition since the last wait
}

func (l *transitionLog) note(_ string, to NodeHealth) {
	l.mu.Lock()
	l.seq = append(l.seq, to)
	l.mu.Unlock()
	select {
	case l.moved <- struct{}{}:
	default:
	}
}

func (l *transitionLog) snapshot() []NodeHealth {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]NodeHealth(nil), l.seq...)
}

// waitHealth waits for the prober to move n to want: the prober sets a
// node's health before it notes the transition.
func (l *transitionLog) waitHealth(t *testing.T, n *Node, want NodeHealth) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for n.Health() != want {
		select {
		case <-l.moved:
		case <-timeout:
			t.Fatalf("node %s stuck at %v, want %v", n.Name, n.Health(), want)
		}
	}
}

// heartbeats is a node's transport with each of the prober's pings
// announced on pinged once it returns.
type heartbeats struct {
	transport.Transport
	pinged chan struct{}
}

func (h heartbeats) Ping(ctx context.Context) error {
	err := h.Transport.Ping(ctx)
	select {
	case h.pinged <- struct{}{}:
	default:
	}
	return err
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
	beats := heartbeats{Transport: c, pinged: make(chan struct{}, 3)} // the three the test reads
	remote := NewRemoteNode("r1", beats, false, Options{})
	if err := cl.AddNode(remote); err != nil {
		t.Fatal(err)
	}
	local := NewNode("l1", Options{})
	if err := cl.AddNode(local); err != nil {
		t.Fatal(err)
	}

	log := transitionLog{moved: make(chan struct{}, 1)}
	stop := cl.StartProber(ProberOptions{
		Interval:     50 * time.Millisecond,
		DownAfter:    3,
		OnTransition: log.note,
	})
	defer stop()

	// Healthy server: the node must stay Up across several probe rounds.
	// The prober acts on a heartbeat before it sends the next, so two
	// rounds are over once the third has returned.
	for i := 0; i < 3; i++ {
		select {
		case <-beats.pinged:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d heartbeats in 5s", i)
		}
	}
	if got := remote.Health(); got != Up {
		t.Fatalf("healthy remote probed to %v", got)
	}
	if got := local.Health(); got != Up {
		t.Fatalf("local node touched by prober: %v", got)
	}

	// Kill the worker. Missed probes must walk the state machine down.
	srv.Close()
	log.waitHealth(t, remote, Draining)
	log.waitHealth(t, remote, Down)

	// Resurrect on the same address; the prober must recover the node.
	srv2 := transport.NewServer(transport.ServerOptions{})
	srv2.Host("r1", sink)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	log.waitHealth(t, remote, Up)

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
