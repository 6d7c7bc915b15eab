package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workflow"
)

// newSystemFromDSL builds a system over n fast nodes.
func newSystemFromDSL(t *testing.T, dsl string, nodes int, cfgMut ...func(*Config)) *System {
	t.Helper()
	return newSystemFromDSLOf(t, dsl, nodes, cluster.NewNode, cfgMut...)
}

// newSystemFromDSLOf is newSystemFromDSL with each node built by newNode.
func newSystemFromDSLOf(t *testing.T, dsl string, nodes int, newNode nodeFunc, cfgMut ...func(*Config)) *System {
	t.Helper()
	wf, err := workflow.ParseDSLString(dsl)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewCluster(nil)
	for i := 1; i <= nodes; i++ {
		if err := cl.AddNode(newNode(fmt.Sprintf("w%d", i), cluster.Options{
			ColdStart: time.Millisecond,
		})); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{
		Workflow:    wf,
		Cluster:     cl,
		DefaultSpec: cluster.Spec{MemoryMB: 8 * 1024},
	}
	for _, mut := range cfgMut {
		mut(&cfg)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSwitchRoutesToChosenBranch(t *testing.T) {
	sys := newSystemFromDSL(t, `
workflow sw
function gate
  input n from $USER
  output route type SWITCH to small.x, large.x
function small
  input x
  output o to $USER
function large
  input x
  output o to $USER
`, 2)
	defer sys.Shutdown()
	_ = sys.Register("gate", func(ctx *Context) error {
		n, err := ctx.Input("n")
		if err != nil {
			return err
		}
		caseIdx := 0
		if len(n) > 4 {
			caseIdx = 1
		}
		return ctx.PutSwitch("route", n, caseIdx)
	})
	_ = sys.Register("small", func(ctx *Context) error {
		x, _ := ctx.Input("x")
		return ctx.Put("o", append([]byte("small:"), x...))
	})
	_ = sys.Register("large", func(ctx *Context) error {
		x, _ := ctx.Input("x")
		return ctx.Put("o", append([]byte("large:"), x...))
	})

	for _, tc := range []struct {
		in, want string
	}{
		{"abc", "small:abc"},
		{"abcdefgh", "large:abcdefgh"},
	} {
		inv, err := sys.Invoke(map[string][]byte{"gate.n": []byte(tc.in)})
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
		out, _ := inv.OutputBytes("o")
		if string(out) != tc.want {
			t.Fatalf("out = %q, want %q", out, tc.want)
		}
	}
}

func TestDiamondJoinsBothBranches(t *testing.T) {
	sys := newSystemFromDSL(t, `
workflow diamond
function src
  input in from $USER
  output left to l.x
  output right to r.x
function l
  input x
  output o to join.a
function r
  input x
  output o to join.b
function join
  input a
  input b
  output out to $USER
`, 3)
	defer sys.Shutdown()
	_ = sys.Register("src", func(ctx *Context) error {
		in, _ := ctx.Input("in")
		if err := ctx.Put("left", append([]byte("L"), in...)); err != nil {
			return err
		}
		return ctx.Put("right", append([]byte("R"), in...))
	})
	echo := func(out string) Handler {
		return func(ctx *Context) error {
			x, _ := ctx.Input("x")
			return ctx.Put(out, x)
		}
	}
	_ = sys.Register("l", echo("o"))
	_ = sys.Register("r", echo("o"))
	_ = sys.Register("join", func(ctx *Context) error {
		a, _ := ctx.Input("a")
		b, _ := ctx.Input("b")
		return ctx.Put("out", append(append([]byte{}, a...), b...))
	})
	inv, err := sys.Invoke(map[string][]byte{"src.in": []byte("!")})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	out, _ := inv.OutputBytes("out")
	if string(out) != "L!R!" {
		t.Fatalf("out = %q", out)
	}
}

func TestManyConcurrentRequestsStress(t *testing.T) {
	sys := newSystemFromDSL(t, `
workflow echo
function f
  input in from $USER
  output out to $USER
`, 2)
	defer sys.Shutdown()
	_ = sys.Register("f", func(ctx *Context) error {
		in, _ := ctx.Input("in")
		return ctx.Put("out", in)
	})
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv, err := sys.Invoke(map[string][]byte{"f.in": []byte(fmt.Sprint(i))})
			if err != nil {
				errs[i] = err
				return
			}
			if err := inv.Wait(); err != nil {
				errs[i] = err
				return
			}
			out, _ := inv.OutputBytes("out")
			if string(out) != fmt.Sprint(i) {
				errs[i] = fmt.Errorf("req %d got %q", i, out)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestMultiDestNormalOutput(t *testing.T) {
	sys := newSystemFromDSL(t, `
workflow tee
function src
  input in from $USER
  output o to a.x, b.x
function a
  input x
  output out to $USER
function b
  input x
  output out to $USER
`, 2)
	defer sys.Shutdown()
	_ = sys.Register("src", func(ctx *Context) error {
		in, _ := ctx.Input("in")
		return ctx.Put("o", in)
	})
	for _, fn := range []string{"a", "b"} {
		fn := fn
		_ = sys.Register(fn, func(ctx *Context) error {
			x, _ := ctx.Input("x")
			return ctx.Put("out", append([]byte(fn+":"), x...))
		})
	}
	inv, _ := sys.Invoke(map[string][]byte{"src.in": []byte("z")})
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	outs := inv.Outputs()
	if len(outs) != 2 {
		t.Fatalf("user items = %d, want 2", len(outs))
	}
	got := map[string]bool{}
	for _, it := range outs {
		got[string(it.Value.Payload)] = true
	}
	if !got["a:z"] || !got["b:z"] {
		t.Fatalf("outputs = %v", got)
	}
}
