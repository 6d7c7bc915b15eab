package dataflow

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/workflow"
)

// TestTrackerOutgrowsItsInlineSeeds walks a request larger than every inline
// seed — six functions (the seed holds four), three broadcast items on one
// input and three user items (one each) — through RouteAppend and DeliverInto item by
// item and compares the ready sets, the collected inputs and the user items
// with what the tracker recorded before it had seeds: outgrowing one must
// not lose, reorder or alias anything.
func TestTrackerOutgrowsItsInlineSeeds(t *testing.T) {
	w, err := workflow.ParseDSLString(`
workflow wide
function src
  input in from $USER
  output go to p1.x, p2.x, p3.x
function p1
  input x
  output r type MERGE to gather.rs
  output note to $USER
function p2
  input x
  output r type MERGE to gather.rs
  output note to $USER
function p3
  input x
  output r type MERGE to gather.rs
  output note to $USER
function gather
  input rs type LIST
  output all to tail.x
function tail
  input x
  output done to $USER
`)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(w)
	var log []string
	ready, err := tr.Start(map[string]Value{"src.in": val(1)})
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, fmt.Sprint("start ", ready))
	emit := func(from, output string, size int64) {
		t.Helper()
		items, err := tr.RouteAppend(nil, InstanceKey{Fn: from}, output, []Value{val(size)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			newly, err := tr.DeliverInto(nil, it)
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, fmt.Sprintf("%s.%s->%s %v", from, output, it.To, newly))
		}
	}
	emit("src", "go", 10)
	// Out of branch order: the LIST input sorts by producer, not by arrival.
	for _, p := range []struct {
		fn   string
		size int64
	}{{"p3", 33}, {"p1", 11}, {"p2", 22}} {
		emit(p.fn, "r", p.size)
		emit(p.fn, "note", p.size+100)
	}
	emit("gather", "all", 66)
	if tr.Complete() {
		t.Fatal("complete before tail's item reached the user")
	}
	emit("tail", "done", 7)
	if !tr.Complete() {
		t.Fatal("not complete after the fourth user item")
	}

	wantLog := []string{
		"start [src[0]]",
		"src.go->p1[-1] [p1[0]]",
		"src.go->p2[-1] [p2[0]]",
		"src.go->p3[-1] [p3[0]]",
		"p3.r->gather[-1] []",
		"p3.note->$USER[0] []",
		"p1.r->gather[-1] []",
		"p1.note->$USER[0] []",
		"p2.r->gather[-1] [gather[0]]",
		"p2.note->$USER[0] []",
		"gather.all->tail[-1] [tail[0]]",
		"tail.done->$USER[0] []",
	}
	if !reflect.DeepEqual(log, wantLog) {
		t.Fatalf("ready sets:\n got %q\nwant %q", log, wantLog)
	}
	if got, want := tr.InputsAppend(nil, InstanceKey{Fn: "gather"}), []InputVals{{Name: "rs", Values: []Value{val(11), val(22), val(33)}}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("gather inputs = %v, want %v", got, want)
	}
	if got := tr.InputsAppend(nil, InstanceKey{Fn: "tail"}); len(got) != 1 || got[0].Name != "x" || !reflect.DeepEqual(got[0].Values, []Value{val(66)}) {
		t.Fatalf("tail inputs = %v", got)
	}
	var users []string
	for _, it := range tr.UserItems() {
		users = append(users, fmt.Sprintf("%s.%s=%d", it.From.Fn, it.Output, it.Value.Size))
	}
	if want := []string{"p3.note=133", "p1.note=111", "p2.note=122", "tail.done=7"}; !reflect.DeepEqual(users, want) {
		t.Fatalf("user items = %v, want %v", users, want)
	}
	for _, fn := range []string{"src", "p1", "p2", "p3", "gather", "tail"} {
		if !tr.isReadyKey(InstanceKey{Fn: fn}) {
			t.Fatalf("%s never became ready", fn)
		}
	}
}

// TestChainRequestAllocatesNothing: a request over a handful of functions
// with single items walks the plan inside the tracker's inline seeds — Init,
// the entry input, and per instance inputs, route and delivery, with
// caller-owned buffers as the runtime engine holds them, allocate nothing:
// Value.Payload is a byte slice, so the entry payload is not boxed either.
func TestChainRequestAllocatesNothing(t *testing.T) {
	w, err := workflow.ParseDSLString(`
workflow chain
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
	var (
		tr     Tracker
		ready  = make([]Ready, 0, 4)
		items  = make([]Item, 0, 4)
		inputs = make([]InputVals, 0, 4)
		vals   = make([]Value, 0, 4)
		input  = map[string][]byte{"a.in": []byte("x")}
		one    = []Value{val(1)}
	)
	allocs := testing.AllocsPerRun(100, func() {
		tr.Init(w, "r")
		queue, err := tr.StartBytesInto(ready[:0], input)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range []string{"x", "out"} {
			rd := queue[0]
			inputs, vals = tr.InputsAppendBacking(inputs[:0], vals[:0], rd.Fn, rd.Key)
			if items, err = tr.RouteIndexed(items[:0], rd.Fn, rd.Key, out, one, 0); err != nil {
				t.Fatal(err)
			}
			if queue, err = tr.DeliverReady(queue[:0], items[0]); err != nil {
				t.Fatal(err)
			}
		}
		if !tr.Complete() {
			t.Fatal("chain did not complete")
		}
	})
	if allocs != 0 {
		t.Fatalf("a chain request's tracker allocates %.1f objects, want 0", allocs)
	}
}
