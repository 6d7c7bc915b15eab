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
		tr := NewTracker(w, "r")
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
