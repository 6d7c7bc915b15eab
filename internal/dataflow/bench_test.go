package dataflow

import (
	"testing"

	"repro/internal/workflow"
)

func benchWorkflow(b *testing.B) *workflow.Workflow {
	b.Helper()
	w, err := workflow.ParseDSLString(`
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
`)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkFullRequestRouting measures a complete request's routing and
// readiness bookkeeping with a 16-way fan-out.
func BenchmarkFullRequestRouting(b *testing.B) {
	w := benchWorkflow(b)
	vals := make([]Value, 16)
	for i := range vals {
		vals[i] = Value{Size: 1024}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewTracker(w)
		if _, err := tr.Start(map[string]Value{"start.src": {Size: 4096}}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := tr.emit(InstanceKey{Fn: "start"}, "filelist", vals, 0); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 16; j++ {
			if _, _, err := tr.emit(InstanceKey{Fn: "count", Idx: j}, "result",
				[]Value{{Size: 256}}, 0); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := tr.emit(InstanceKey{Fn: "merge"}, "out", []Value{{Size: 128}}, 0); err != nil {
			b.Fatal(err)
		}
		if !tr.Complete() {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkChainRequest measures the walk a warm two-function chain request
// takes through a recycled tracker, as the runtime engine drives it: Init,
// the entry input, then per instance its inputs, the route of its one output
// and the delivery of the routed item, Complete, and Reset at recycle.
func BenchmarkChainRequest(b *testing.B) {
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
		b.Fatal(err)
	}
	var (
		tr     Tracker
		ready  = make([]Ready, 0, 4)
		items  = make([]Item, 0, 4)
		inputs = make([]InputVals, 0, 4)
		vals   = make([]Value, 0, 4)
		input  = map[string][]byte{"a.in": make([]byte, 64)}
		one    = []Value{{Payload: make([]byte, 64), Size: 64}}
		outs   = [2]string{"x", "out"}
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Init(w, "")
		queue, err := tr.StartBytesInto(ready[:0], input)
		if err != nil {
			b.Fatal(err)
		}
		for _, out := range outs {
			rd := queue[0]
			inputs, vals = tr.InputsAppendBacking(inputs[:0], vals[:0], rd.Fn, rd.Key)
			if items, err = tr.RouteIndexed(items[:0], rd.Fn, rd.Key, out, one, 0); err != nil {
				b.Fatal(err)
			}
			if queue, err = tr.DeliverReady(queue[:0], &items[0]); err != nil {
				b.Fatal(err)
			}
		}
		if !tr.Complete() {
			b.Fatal("chain did not complete")
		}
		tr.Reset()
	}
}
