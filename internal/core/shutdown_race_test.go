package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workflow"
)

// stormUntilShutdown runs eight closed-loop invokers against sys, shuts it
// down delay after they start — concurrently with the storm — and returns
// every admitted invocation once the invokers have seen the shutdown.
func stormUntilShutdown(sys *System, delay time.Duration, input func(g, i int) map[string][]byte) []*Invocation {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var invs []*Invocation
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				inv, err := sys.Invoke(input(g, i))
				if err != nil {
					return // shutdown observed
				}
				mu.Lock()
				invs = append(invs, inv)
				mu.Unlock()
			}
		}(g)
	}
	time.Sleep(delay)
	sys.Shutdown()
	wg.Wait()
	return invs
}

// completedOf counts the invocations that resolved; requests abandoned
// mid-flight simply stay open.
func completedOf(invs []*Invocation) (done []*Invocation) {
	for _, inv := range invs {
		select {
		case <-inv.Done():
			done = append(done, inv)
		default:
		}
	}
	return done
}

// TestShutdownDuringInvokeStorm pins the dluEnqueue/Shutdown protocol: a
// Shutdown issued while a storm of requests is in flight must never panic
// (the old global channel registry closed channels under a send) and must
// return with every background goroutine drained. In-flight requests may be
// abandoned — their Done channels stay open — but nothing may hang: the
// system itself is quiescent (bg drained by Shutdown). Run with -race in CI.
func TestShutdownDuringInvokeStorm(t *testing.T) {
	wf, err := workflow.ParseDSLString(`
workflow storm
function a
  input in from $USER
  output x to b.x
function b
  input x
  output out to $USER
`)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		cl := cluster.NewCluster(nil)
		for i := 1; i <= 2; i++ {
			if err := cl.AddNode(cluster.NewNode(fmt.Sprintf("w%d", i), cluster.Options{})); err != nil {
				t.Fatal(err)
			}
		}
		sys, err := NewSystem(Config{
			Workflow:    wf,
			Cluster:     cl,
			DefaultSpec: cluster.Spec{MemoryMB: 10 * 1024},
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = sys.Register("a", func(ctx *Context) error {
			in, _ := ctx.Input("in")
			return ctx.Put("x", in)
		})
		_ = sys.Register("b", func(ctx *Context) error {
			x, _ := ctx.Input("x")
			return ctx.Put("out", x)
		})

		// Let the storm build, then shut down concurrently with it.
		in := map[string][]byte{"a.in": []byte("x")}
		invs := stormUntilShutdown(sys, time.Duration(round)*time.Millisecond, func(int, int) map[string][]byte { return in })
		sys.Shutdown() // idempotent
		if _, err := sys.Invoke(in); err == nil {
			t.Fatal("Invoke accepted after Shutdown")
		}
		t.Logf("round %d: %d/%d requests completed before shutdown", round, len(completedOf(invs)), len(invs))
	}
}
