package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/workflow"
)

const chainDSL = `
workflow chain
function a
  input in from $USER
  output x to b.x
function b
  input x
  output out to $USER
`

// newChainSystem builds an a->b chain over n nodes with the given policy
// and config mutation (which must leave Cluster alone: it is built here).
func newChainSystem(t testing.TB, nodes int, policy cluster.PlacementPolicy, cfgMut func(*Config)) *System {
	t.Helper()
	return newChainSystemOf(t, nodes, policy, cfgMut, cluster.NewNode)
}

// newChainSystemOf is newChainSystem with each worker built by newNode.
func newChainSystemOf(t testing.TB, nodes int, policy cluster.PlacementPolicy, cfgMut func(*Config), newNode nodeFunc) *System {
	t.Helper()
	wf, err := workflow.ParseDSLString(chainDSL)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workflow:    wf,
		DefaultSpec: cluster.Spec{MemoryMB: 10 * 1024},
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	cfg.Cluster = cluster.NewCluster(policy)
	for i := 1; i <= nodes; i++ {
		// One clock for engine and nodes.
		if err := cfg.Cluster.AddNode(newNode(fmt.Sprintf("w%d", i), cluster.Options{Clock: cfg.Clock})); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register("a", func(ctx *Context) error {
		in, err := ctx.Input("in")
		if err != nil {
			return err
		}
		return ctx.Put("x", in)
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Register("b", func(ctx *Context) error {
		x, err := ctx.Input("x")
		if err != nil {
			return err
		}
		return ctx.Put("out", x)
	}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestMultiReplicaEndToEnd(t *testing.T) {
	// Every function on two replicas: concurrent requests must route, pin,
	// complete correctly and leave every sink drained.
	sys := newChainSystem(t, 3, cluster.RoundRobin{Replicas: 2}, nil)
	defer sys.Shutdown()
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv, err := sys.Invoke(map[string][]byte{"a.in": []byte(fmt.Sprintf("p%d", i))})
			if err != nil {
				errs[i] = err
				return
			}
			if err := inv.Wait(); err != nil {
				errs[i] = err
				return
			}
			out, _ := inv.OutputBytes("out")
			if string(out) != fmt.Sprintf("p%d", i) {
				errs[i] = fmt.Errorf("out = %q", out)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
	}
	for _, name := range sys.cfg.Cluster.Nodes() {
		node, _ := sys.cfg.Cluster.Node(name)
		if node.Sink.MemBytes() != 0 {
			t.Fatalf("node %s sink holds %d bytes after completion", name, node.Sink.MemBytes())
		}
	}
	if got := sys.Replicas("a"); len(got) != 2 {
		t.Fatalf("Replicas(a) = %v", got)
	}
}

func TestLocalityFirstSelection(t *testing.T) {
	// a -> [w1,w2], b -> [w2,w1]: with the cluster idle, a pins its primary
	// w1; b's replica set contains w1, so locality-first must run b on w1
	// (local pipe) instead of shipping to b's primary w2. Pressure prewarm
	// is off so containers exist exactly where instances ran.
	sys := newChainSystem(t, 2, cluster.RoundRobin{Replicas: 2}, func(c *Config) {
		c.DisablePressure = true
	})
	defer sys.Shutdown()
	inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	w1, _ := sys.cfg.Cluster.Node("w1")
	w2, _ := sys.cfg.Cluster.Node("w2")
	if w1.Containers("b") != 1 || w2.Containers("b") != 0 {
		t.Fatalf("b containers: w1=%d w2=%d, want co-located with a on w1",
			w1.Containers("b"), w2.Containers("b"))
	}
}

// TestReplicaPickSteersByInFlightLoad: with no preference, a new pin goes to
// the replica running the fewest instances. Two requests hold a executing on
// w1 (w2 drains while they pin, so both land there); once w2 is back, a third
// request pins a to w2.
func TestReplicaPickSteersByInFlightLoad(t *testing.T) {
	sys := newChainSystem(t, 2, cluster.RoundRobin{Replicas: 2}, func(c *Config) {
		c.FaultTolerant = true // health is consulted at the pick
	})
	defer sys.Shutdown()
	cl := sys.cfg.Cluster
	block := make(chan struct{})
	var started sync.WaitGroup
	var mu sync.Mutex
	ranOn := map[string]string{} // request id -> the node its a ran on
	_ = sys.Register("a", func(ctx *Context) error {
		mu.Lock()
		ranOn[ctx.ReqID()] = ctx.node()
		mu.Unlock()
		started.Done()
		<-block
		in, _ := ctx.Input("in")
		return ctx.Put("x", in)
	})
	invoke := func() *Invocation {
		t.Helper()
		started.Add(1)
		inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		return inv
	}
	if err := cl.DrainNode("w2"); err != nil {
		t.Fatal(err)
	}
	invs := []*Invocation{invoke(), invoke()}
	started.Wait()
	if err := cl.RecoverNode("w2"); err != nil {
		t.Fatal(err)
	}
	invs = append(invs, invoke())
	started.Wait()
	mu.Lock()
	third := ranOn[invs[2].ReqID()]
	mu.Unlock()
	close(block)
	for _, inv := range invs {
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if third != "w2" {
		t.Fatalf("third request ran a on %q, want the idle replica w2", third)
	}
}

func TestReplicaPinIsStablePerRequest(t *testing.T) {
	// All items of one request addressed to the same function must land on
	// one node: a FOREACH fan-out consumed by a MERGE exercises multiple
	// ships to the same destination function.
	wf, err := workflow.ParseDSLString(wcDSL)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(cluster.RoundRobin{Replicas: 3})
	for i := 1; i <= 3; i++ {
		_ = cl.AddNode(cluster.NewNode(fmt.Sprintf("w%d", i), cluster.Options{}))
	}
	sys2, err := NewSystem(Config{
		Workflow:    wf,
		Cluster:     cl,
		DefaultSpec: cluster.Spec{MemoryMB: 10 * 1024},
		// Pressure prewarm may start containers on other replicas; disable
		// it so containers exist exactly where instances ran.
		DisablePressure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	registerWC(t, sys2)
	defer sys2.Shutdown()
	inv, err := sys2.Invoke(map[string][]byte{"start.src": []byte("a b a c b a d a b c")})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	out, _ := inv.OutputBytes("out")
	if string(out) != "a 4\nb 3\nc 2\nd 1\n" {
		t.Fatalf("out = %q", out)
	}
	// count ran as 3 instances; all must have executed on one pinned node.
	hosts := 0
	for i := 1; i <= 3; i++ {
		n, _ := cl.Node(fmt.Sprintf("w%d", i))
		if n.Containers("count") > 0 {
			hosts++
		}
	}
	if hosts != 1 {
		t.Fatalf("count containers spread over %d nodes within one request, want 1", hosts)
	}
}

func TestPlaceVsSelectionStorm(t *testing.T) {
	// The -race storm of the routing plane: one goroutine keeps re-running
	// placement on the cluster while many goroutines run replica selection
	// on the Invoke/ship hot path. Replica sets must stay those fixed at the
	// system's placement, and every request must complete and drain.
	if testing.Short() {
		t.Skip("storm test")
	}
	sys := newChainSystem(t, 4, cluster.RoundRobin{Replicas: 2}, nil)
	defer sys.Shutdown()
	cl := sys.cfg.Cluster
	wantA, wantB := sys.Replicas("a"), sys.Replicas("b")

	stop := make(chan struct{})
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cl.Place([]string{"a", "b"})
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("x")})
				if err != nil {
					errs[g] = err
					return
				}
				if err := inv.Wait(); err != nil {
					errs[g] = err
					return
				}
				if out, _ := inv.OutputBytes("out"); string(out) != "x" {
					errs[g] = fmt.Errorf("out = %q", out)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-pubDone
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.Replicas("a"); fmt.Sprint(got) != fmt.Sprint(wantA) {
		t.Fatalf("Replicas(a) = %v after re-placing, want %v", got, wantA)
	}
	if got := sys.Replicas("b"); fmt.Sprint(got) != fmt.Sprint(wantB) {
		t.Fatalf("Replicas(b) = %v after re-placing, want %v", got, wantB)
	}
	for _, name := range cl.Nodes() {
		node, _ := cl.Node(name)
		if node.Sink.MemBytes() != 0 {
			t.Fatalf("node %s sink holds %d bytes after the storm", name, node.Sink.MemBytes())
		}
	}
}
