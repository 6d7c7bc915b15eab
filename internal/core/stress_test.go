package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workflow"
)

const fanoutDSL = `
workflow fanout
function split
  input src from $USER
  output parts type FOREACH to work.part
function work
  input part
  output out type MERGE to join.parts
function join
  input parts type LIST
  output result to $USER
`

// TestHighFanOutConcurrentInvocations stresses the engine with many
// simultaneous requests, each fanning out to 16 instances, over remote sinks
// (sinkNode) with a short TTL so passive expiry churns while instances
// consume. It pins the end-of-request GC: after every request completes, the
// invocation table and both sink tiers on every node must be empty. Run with
// -race in CI.
func TestHighFanOutConcurrentInvocations(t *testing.T) {
	const fanout = 16
	const requests = 24
	wf, err := workflow.ParseDSLString(fanoutDSL)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	for i := 0; i < 3; i++ {
		err := cl.AddNode(sinkNode(fmt.Sprintf("w%d", i+1), cluster.Options{
			ColdStart: time.Millisecond,
			SinkTTL:   20 * time.Millisecond,
		}))
		if err != nil {
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
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sys.Register("split", func(ctx *Context) error {
		src, err := ctx.Input("src")
		if err != nil {
			return err
		}
		parts := make([][]byte, fanout)
		for i := range parts {
			parts[i] = []byte(fmt.Sprintf("%s#%d", src, i))
		}
		return ctx.PutForeach("parts", parts)
	}))
	must(sys.Register("work", func(ctx *Context) error {
		part, err := ctx.Input("part")
		if err != nil {
			return err
		}
		return ctx.Put("out", []byte(strings.ToUpper(string(part))))
	}))
	must(sys.Register("join", func(ctx *Context) error {
		parts, err := ctx.InputList("parts")
		if err != nil {
			return err
		}
		return ctx.Put("result", bytes.Join(parts, []byte(",")))
	}))

	var wg sync.WaitGroup
	errs := make([]error, requests)
	outs := make([][]byte, requests)
	for r := 0; r < requests; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv, err := sys.Invoke(map[string][]byte{
				"split.src": []byte(fmt.Sprintf("req%d", r)),
			})
			if err != nil {
				errs[r] = err
				return
			}
			if err := inv.Wait(); err != nil {
				errs[r] = err
				return
			}
			outs[r], _ = inv.OutputBytes("result")
		}()
	}
	wg.Wait()
	sys.Shutdown()

	for r := 0; r < requests; r++ {
		if errs[r] != nil {
			t.Fatalf("request %d: %v", r, errs[r])
		}
		got := string(outs[r])
		if n := strings.Count(got, ","); n != fanout-1 {
			t.Fatalf("request %d: %d parts merged, want %d (%q)", r, n+1, fanout, got)
		}
		if !strings.Contains(got, fmt.Sprintf("REQ%d#0", r)) {
			t.Fatalf("request %d: output %q missing its own data", r, got)
		}
	}
	if n := sys.PendingInvocations(); n != 0 {
		t.Fatalf("invocation table holds %d entries after completion, want 0", n)
	}
	for _, name := range cl.Nodes() {
		n, _ := cl.Node(name)
		if mem, disk := sinkOf(n).MemBytes(), sinkOf(n).DiskBytes(); mem != 0 || disk != 0 {
			t.Fatalf("node %s sink not drained: mem=%d disk=%d", name, mem, disk)
		}
	}
	st := sys.SinkStats()
	if st.Puts == 0 || st.PeakMemBytes == 0 {
		t.Fatalf("sink stats empty: %+v", st)
	}
}

// TestRejectedInvokeDoesNotLeak pins the error path of Invoke: a request
// whose inputs fail validation must not stay in the invocation table.
func TestRejectedInvokeDoesNotLeak(t *testing.T) {
	sys := newWCSystem(t, 1, nil)
	defer sys.Shutdown()
	if _, err := sys.Invoke(map[string][]byte{"no.such": []byte("x")}); err == nil {
		t.Fatal("Invoke accepted an unknown input key")
	}
	if n := sys.PendingInvocations(); n != 0 {
		t.Fatalf("invocation table holds %d entries after rejected Invoke, want 0", n)
	}
}

// TestPendingInvocationsAcrossStripes checks the system-level view: a batch
// of concurrent requests is tracked while in flight and the table returns
// to empty after completion, with request IDs spanning many stripes.
func TestPendingInvocationsAcrossStripes(t *testing.T) {
	sys := newWCSystem(t, 2, nil)
	defer sys.Shutdown()
	const n = 40
	invs := make([]*Invocation, 0, n)
	for i := 0; i < n; i++ {
		inv, err := sys.Invoke(map[string][]byte{
			"start.src": []byte(fmt.Sprintf("w%d w%d w%d", i, i, i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		invs = append(invs, inv)
	}
	for _, inv := range invs {
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.PendingInvocations(); got != 0 {
		t.Fatalf("PendingInvocations = %d after all requests completed", got)
	}
}
