package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/workflow"
)

const wcDSL = `
workflow wc
function start
  input src from $USER
  output filelist type FOREACH to count.file
function count
  input file
  output result type MERGE to merge.counts
function merge
  input counts type LIST
  output out to $USER
`

// newWCSystem builds a wordcount system over n nodes with fast containers
// that records every request's stages into its span ring.
func newWCSystem(t testing.TB, nodes int, cfgMut func(*Config)) *System {
	t.Helper()
	return newWCSystemOf(t, nodes, cluster.NewNode, cfgMut)
}

// newWCSystemOf is newWCSystem with each node built by newNode.
func newWCSystemOf(t testing.TB, nodes int, newNode nodeFunc, cfgMut func(*Config)) *System {
	t.Helper()
	wf, err := workflow.ParseDSLString(wcDSL)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	for i := 0; i < nodes; i++ {
		if err := cl.AddNode(newNode(fmt.Sprintf("w%d", i+1), cluster.Options{
			ColdStart: time.Millisecond,
		})); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{
		Workflow: wf,
		Cluster:  cl,
		// Large spec so transfers are fast in tests.
		DefaultSpec: cluster.Spec{MemoryMB: 10 * 1024},
		Obs:         ObsConfig{SampleEvery: 1},
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

// registerWC installs real word-count handlers.
func registerWC(t testing.TB, sys *System) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sys.Register("start", func(ctx *Context) error {
		src, err := ctx.Input("src")
		if err != nil {
			return err
		}
		// Split the text into 3 shards.
		words := strings.Fields(string(src))
		shards := make([][]byte, 3)
		for i := range shards {
			lo, hi := i*len(words)/3, (i+1)*len(words)/3
			shards[i] = []byte(strings.Join(words[lo:hi], " "))
		}
		return ctx.PutForeach("filelist", shards)
	}))
	must(sys.Register("count", func(ctx *Context) error {
		shard, err := ctx.Input("file")
		if err != nil {
			return err
		}
		counts := map[string]int{}
		for _, w := range strings.Fields(string(shard)) {
			counts[w]++
		}
		var b bytes.Buffer
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %d\n", k, counts[k])
		}
		return ctx.Put("result", b.Bytes())
	}))
	must(sys.Register("merge", func(ctx *Context) error {
		parts, err := ctx.InputList("counts")
		if err != nil {
			return err
		}
		total := map[string]int{}
		for _, p := range parts {
			for _, line := range strings.Split(strings.TrimSpace(string(p)), "\n") {
				if line == "" {
					continue
				}
				fs := strings.Fields(line)
				n, _ := strconv.Atoi(fs[1])
				total[fs[0]] += n
			}
		}
		var b bytes.Buffer
		keys := make([]string, 0, len(total))
		for k := range total {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %d\n", k, total[k])
		}
		return ctx.Put("out", b.Bytes())
	}))
}

func TestEndToEndWordCount(t *testing.T) {
	sys := newWCSystem(t, 3, nil)
	defer sys.Shutdown()
	inv, err := sys.Invoke(map[string][]byte{
		"start.src": []byte("a b a c b a d a b c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	out, ok := inv.OutputBytes("out")
	if !ok {
		t.Fatalf("no out item: %v", inv.Outputs())
	}
	want := "a 4\nb 3\nc 2\nd 1\n"
	if string(out) != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
	if inv.Latency() <= 0 {
		t.Fatal("latency not recorded")
	}
}

func TestSingleNodeLocalPipes(t *testing.T) {
	sys := newWCSystem(t, 1, nil)
	defer sys.Shutdown()
	inv, err := sys.Invoke(map[string][]byte{"start.src": []byte("x y x")})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	out, _ := inv.OutputBytes("out")
	if string(out) != "x 2\ny 1\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	sys := newWCSystem(t, 2, nil)
	defer sys.Shutdown()
	const n = 10
	invs := make([]*Invocation, n)
	for i := range invs {
		inv, err := sys.Invoke(map[string][]byte{
			"start.src": []byte(strings.Repeat(fmt.Sprintf("w%d ", i), 5)),
		})
		if err != nil {
			t.Fatal(err)
		}
		invs[i] = inv
	}
	for i, inv := range invs {
		if err := inv.Wait(); err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		out, _ := inv.OutputBytes("out")
		want := fmt.Sprintf("w%d 5\n", i)
		if string(out) != want {
			t.Fatalf("req %d out = %q, want %q", i, out, want)
		}
	}
}

func TestEarlyTriggeringBeforePredecessorCompletes(t *testing.T) {
	// A producer that Puts early and then keeps computing: the consumer
	// must start — not merely be handed its key by the tracker, which is all
	// Triggered says — before the producer finishes. Checked on request 1,
	// where the producer has no T_FLU sample, and again once a hundred runs
	// have measured its trailing compute: neither may run the consumer to
	// completion on the producer's goroutine, behind that compute.
	wf, err := workflow.ParseDSLString(`
workflow early
function producer
  input in from $USER
  output early to consumer.x
function consumer
  input x
  output done to $USER
`)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	_ = cl.AddNode(cluster.NewNode("w1", cluster.Options{}))
	sys, err := NewSystem(Config{
		Workflow:    wf,
		Cluster:     cl,
		DefaultSpec: cluster.Spec{MemoryMB: 10 * 1024},
		Obs:         ObsConfig{SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	const trailing = 20 * time.Millisecond
	_ = sys.Register("producer", func(ctx *Context) error {
		if err := ctx.Put("early", []byte("now")); err != nil {
			return err
		}
		// Trailing compute on the wall clock, where T_FLU is wall time: a
		// hundred runs must measure it over the continuation gate.
		time.Sleep(trailing)
		return nil
	})
	_ = sys.Register("consumer", func(ctx *Context) error {
		return ctx.Put("done", []byte("ok"))
	})
	checkEarly := func(when string) {
		t.Helper()
		inv, err := sys.Invoke(map[string][]byte{"producer.in": []byte("go")})
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
		// The request completes when the consumer's output lands, during the
		// producer's trailing compute; its Finished is logged after that.
		var prod, cons *obs.Span
		until(t, func() bool {
			prod, cons = nil, nil
			spans := obs.Spans(sys.ring.Stages(inv.ReqID()))
			for i := range spans {
				switch spans[i].Fn {
				case "producer":
					prod = &spans[i]
				case "consumer":
					cons = &spans[i]
				}
			}
			return prod != nil && cons != nil && prod.Finished >= trailing
		}, when+": producer span never finished")
		if cons.Started >= prod.Finished {
			t.Fatalf("%s: consumer started at %v, after producer finished at %v (no early triggering)",
				when, cons.Started, prod.Finished)
		}
	}
	checkEarly("request 1")
	var warm []*Invocation
	for i := 0; i < 100; i++ {
		inv, err := sys.Invoke(map[string][]byte{"producer.in": []byte("go")})
		if err != nil {
			t.Fatal(err)
		}
		warm = append(warm, inv)
	}
	for _, inv := range warm {
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Every warm producer has returned (and been observed) before the check.
	settle(t, sys, nil)
	checkEarly("after 100 warm requests")
}

func TestHandlerReDoOnFailure(t *testing.T) {
	sys := newWCSystem(t, 1, nil)
	defer sys.Shutdown()
	var fails int32
	// Wrap merge with a once-failing handler.
	orig := sys.fns["merge"].handlerFn()
	_ = sys.Register("merge", func(ctx *Context) error {
		if atomic.AddInt32(&fails, 1) == 1 {
			return errors.New("transient crash")
		}
		return orig(ctx)
	})
	inv, err := sys.Invoke(map[string][]byte{"start.src": []byte("r r r")})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatalf("ReDo did not recover: %v", err)
	}
	out, _ := inv.OutputBytes("out")
	if string(out) != "r 3\n" {
		t.Fatalf("out = %q", out)
	}
	if atomic.LoadInt32(&fails) != 2 {
		t.Fatalf("handler ran %d times, want 2", fails)
	}
}

// TestHandlerFailsPermanently: every instance of a failing function is ReDone
// to the retry limit, and the request fails with the handler's error. count
// fans out to three instances that ReDo independently; the first out of
// attempts fails the request while the others may still run, so their runs
// are counted once Shutdown has drained them.
func TestHandlerFailsPermanently(t *testing.T) {
	sys := newWCSystem(t, 1, nil)
	defer sys.Shutdown()
	var runs [3]atomic.Int32
	_ = sys.Register("count", func(ctx *Context) error {
		runs[ctx.Instance.Idx].Add(1)
		return errors.New("always broken")
	})
	inv, err := sys.Invoke(map[string][]byte{"start.src": []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	err = inv.Wait()
	if err == nil || !strings.Contains(err.Error(), "always broken") {
		t.Fatalf("err = %v", err)
	}
	sys.Shutdown()
	for idx := range runs {
		if got := runs[idx].Load(); got != 1+retryLimit {
			t.Fatalf("count[%d] ran %d times, want 1 + %d ReDos", idx, got, retryLimit)
		}
	}
}

func TestTransferFailureResumesFromCheckpoint(t *testing.T) {
	// Two nodes force a cross-node streaming transfer; inject one failure.
	sys := newWCSystem(t, 2, nil)
	defer sys.Shutdown()
	var injected int32
	sys.SetTransferFailureInjector(func(streamID string) int64 {
		if strings.Contains(streamID, "start") && atomic.CompareAndSwapInt32(&injected, 0, 1) {
			// Fail 96 KiB into the first start->count stream: its first
			// 64 KiB chunk has landed and checkpointed, its second fails.
			return 96 << 10
		}
		return -1
	})
	// Each shard streams over two default-size chunks (> 128 KiB).
	word := strings.Repeat("lorem ", 6*4096) // ~144 KiB per shard after split
	inv, err := sys.Invoke(map[string][]byte{"start.src": []byte(word + word + word)})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatalf("resume did not recover: %v", err)
	}
	if atomic.LoadInt32(&injected) != 1 {
		t.Fatal("failure was never injected")
	}
	out, _ := inv.OutputBytes("out")
	if !strings.HasPrefix(string(out), "lorem ") {
		t.Fatalf("out = %q", out)
	}
}

func TestUnregisteredHandlerRejected(t *testing.T) {
	wf, _ := workflow.ParseDSLString(wcDSL)
	cl := cluster.NewCluster(nil)
	_ = cl.AddNode(cluster.NewNode("w1", cluster.Options{}))
	sys, err := NewSystem(Config{Workflow: wf, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Invoke(map[string][]byte{"start.src": []byte("x")}); err == nil {
		t.Fatal("invoke without handlers accepted")
	}
	if err := sys.Register("ghost", func(*Context) error { return nil }); err == nil {
		t.Fatal("registering unknown function accepted")
	}
}

// TestFannedForeachToUserRefused: the tracker keeps one FOREACH degree per
// output, so a FOREACH to the user from a FOREACH-fanned function cannot be
// counted — its expectation would freeze at n × the first instance's degree.
// NewSystem refuses the shape by function and output. Were it admitted, the
// request below (instance 2 emits two elements first, the others one each
// later) would wait for six user items and get four.
func TestFannedForeachToUserRefused(t *testing.T) {
	wf := workflow.New("fanuser")
	for _, f := range []*workflow.Function{{
		Name:    "a",
		Inputs:  []workflow.Input{{Name: "in", FromUser: true}},
		Outputs: []workflow.Output{{Name: "parts", Kind: workflow.Foreach, Dests: []workflow.Dest{{Function: "b", Input: "x"}}}},
	}, {
		Name:    "b",
		Inputs:  []workflow.Input{{Name: "x"}},
		Outputs: []workflow.Output{{Name: "out", Kind: workflow.Foreach, Dests: []workflow.Dest{{Function: workflow.UserSource}}}},
	}} {
		if err := wf.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	cl := cluster.NewCluster(nil)
	_ = cl.AddNode(cluster.NewNode("w1", cluster.Options{}))
	sys, err := NewSystem(Config{Workflow: wf, Cluster: cl, DefaultSpec: cluster.Spec{MemoryMB: 10 * 1024}})
	if err != nil {
		if !strings.Contains(err.Error(), "function b output out") {
			t.Fatalf("refused without naming b.out: %v", err)
		}
		return
	}
	defer sys.Shutdown()
	_ = sys.Register("a", func(ctx *Context) error {
		return ctx.PutForeach("parts", [][]byte{{0}, {1}, {2}})
	})
	first := make(chan struct{})
	_ = sys.Register("b", func(ctx *Context) error {
		if ctx.Instance.Idx == 2 {
			defer close(first)
			return ctx.PutForeach("out", [][]byte{{2}, {2}})
		}
		<-first
		return ctx.PutForeach("out", [][]byte{{byte(ctx.Instance.Idx)}})
	})
	inv, err := sys.Invoke(map[string][]byte{"a.in": []byte("go")})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-inv.Done():
		t.Fatalf("admitted a FOREACH to the user from a fanned function (err %v)", inv.Err())
	case <-time.After(2 * time.Second):
		t.Fatal("admitted a FOREACH to the user from a fanned function: the request hung")
	}
}

func TestShutdownRejectsInvoke(t *testing.T) {
	sys := newWCSystem(t, 1, nil)
	sys.Shutdown()
	if _, err := sys.Invoke(map[string][]byte{"start.src": []byte("x")}); err == nil {
		t.Fatal("invoke after shutdown accepted")
	}
	sys.Shutdown() // idempotent
}

func TestPressureBlocksProducer(t *testing.T) {
	// Tiny container bandwidth: Put of a large payload must block the FLU
	// for roughly alpha*size/bw (T_FLU ~ 0 on first invocation).
	wf, err := workflow.ParseDSLString(`
workflow p
function producer
  input in from $USER
  output big to sink.x
function sink
  input x
  output done to $USER
`)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	_ = cl.AddNode(cluster.NewNode("w1", cluster.Options{}))
	_ = cl.AddNode(cluster.NewNode("w2", cluster.Options{}))
	sys, err := NewSystem(Config{
		Workflow:    wf,
		Cluster:     cl,
		DefaultSpec: cluster.Spec{MemoryMB: 128}, // 5 MB/s
		Alpha:       1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	var putTook time.Duration
	_ = sys.Register("producer", func(ctx *Context) error {
		start := time.Now()
		err := ctx.Put("big", make([]byte, 512<<10)) // 0.5 MB -> ~100 ms at 5 MB/s
		putTook = time.Since(start)
		return err
	})
	_ = sys.Register("sink", func(ctx *Context) error {
		return ctx.Put("done", []byte("ok"))
	})
	inv, err := sys.Invoke(map[string][]byte{"producer.in": []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	sys.Shutdown()
	if putTook < 50*time.Millisecond {
		t.Fatalf("Put returned in %v; pressure blocking did not engage", putTook)
	}
}

func TestPressureDisabledDoesNotBlock(t *testing.T) {
	wf, err := workflow.ParseDSLString(`
workflow p
function producer
  input in from $USER
  output big to sink.x
function sink
  input x
  output done to $USER
`)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	_ = cl.AddNode(cluster.NewNode("w1", cluster.Options{}))
	_ = cl.AddNode(cluster.NewNode("w2", cluster.Options{}))
	sys, err := NewSystem(Config{
		Workflow:        wf,
		Cluster:         cl,
		DefaultSpec:     cluster.Spec{MemoryMB: 128},
		DisablePressure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var putTook time.Duration
	_ = sys.Register("producer", func(ctx *Context) error {
		start := time.Now()
		err := ctx.Put("big", make([]byte, 512<<10))
		putTook = time.Since(start)
		return err
	})
	_ = sys.Register("sink", func(ctx *Context) error { return ctx.Put("done", []byte("ok")) })
	inv, _ := sys.Invoke(map[string][]byte{"producer.in": []byte("x")})
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	sys.Shutdown()
	if putTook > 50*time.Millisecond {
		t.Fatalf("Put took %v with pressure disabled", putTook)
	}
}

func TestRoutingTablePublished(t *testing.T) {
	sys := newWCSystem(t, 3, nil)
	defer sys.Shutdown()
	rt := sys.Routing()
	if len(rt) != 3 {
		t.Fatalf("rt = %v", rt)
	}
	// Round-robin: start->w1, count->w2, merge->w3.
	if rt["start"] != "w1" || rt["count"] != "w2" || rt["merge"] != "w3" {
		t.Fatalf("rt = %v", rt)
	}
}

func TestFLUAvgTracked(t *testing.T) {
	sys := newWCSystem(t, 1, nil)
	defer sys.Shutdown()
	inv, _ := sys.Invoke(map[string][]byte{"start.src": []byte("a b c")})
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	if sys.FLUAvg("count") <= 0 {
		t.Fatal("T_FLU not tracked")
	}
	if sys.FLUAvg("ghost") != 0 {
		t.Fatal("unknown fn should report 0")
	}
}

func TestSinkDrainedAfterCompletion(t *testing.T) {
	sys := newWCSystem(t, 2, nil)
	defer sys.Shutdown()
	inv, _ := sys.Invoke(map[string][]byte{"start.src": []byte("a b c d e f")})
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, name := range sys.cfg.Cluster.Nodes() {
		n, _ := sys.cfg.Cluster.Node(name)
		if n.Sink.MemBytes() != 0 {
			t.Fatalf("node %s sink holds %d bytes after completion", name, n.Sink.MemBytes())
		}
	}
}
