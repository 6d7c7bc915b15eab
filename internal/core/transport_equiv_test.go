package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/transport"
	"repro/internal/wmm"
	"repro/internal/workflow"
)

// newRemoteWCSystem builds the same wordcount system as newWCSystem, except
// every node's Wait-Match Memory lives behind a real TCP transport: one
// in-process transport.Server per node hosting its sink, dialed by a
// transport.Client the cluster node wraps. Handlers still run in this
// process — only the data plane crosses a socket.
func newRemoteWCSystem(t testing.TB, nodes int, cfgMut func(*Config)) *System {
	t.Helper()
	wf, err := workflow.ParseDSLString(wcDSL)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("w%d", i+1)
		srv := transport.NewServer(transport.ServerOptions{})
		srv.Host(name, wmm.NewSink(wmm.Options{}))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := transport.DialTCP(context.Background(), addr, name, transport.DialOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := cl.AddNode(cluster.NewRemoteNode(name, c, false, cluster.Options{
			ColdStart: time.Millisecond,
		})); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{
		Workflow:    wf,
		Cluster:     cl,
		DefaultSpec: cluster.Spec{MemoryMB: 10 * 1024},
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerWC(t, sys)
	return sys
}

// TestTransportEquivalence: a 200-request wordcount storm produces
// byte-identical outputs (runWCStorm checks each one) and identical merged
// sink statistics whether the data plane is the inproc transport or TCP
// framing to per-node sink servers. PeakMemBytes is excluded — it depends
// on scheduling interleavings, not on the op stream.
func TestTransportEquivalence(t *testing.T) {
	const requests = 200
	local := newUntracedWCSystem(t, 3, nil)
	defer local.Shutdown()
	localStats := runWCStorm(t, local, requests)
	localStats.PeakMemBytes = 0

	remote := newRemoteWCSystem(t, 3, nil)
	defer remote.Shutdown()
	remoteStats := runWCStorm(t, remote, requests)
	remoteStats.PeakMemBytes = 0

	if localStats != remoteStats {
		t.Fatalf("sink stats diverge:\ninproc %+v\ntcp    %+v", localStats, remoteStats)
	}
}
