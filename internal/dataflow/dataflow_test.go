package dataflow

import (
	"testing"
	"testing/quick"

	"repro/internal/workflow"
)

// wcWorkflow builds the WordCount DAG: start -(FOREACH)-> count -(MERGE)-> merge -> $USER.
func wcWorkflow(t testing.TB) *workflow.Workflow {
	t.Helper()
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
		t.Fatal(err)
	}
	return w
}

// diamondWorkflow builds a diamond: a -> (b, c) -> d, d needs both.
func diamondWorkflow(t testing.TB) *workflow.Workflow {
	t.Helper()
	w, err := workflow.ParseDSLString(`
workflow diamond
function a
  input in from $USER
  output left to b.x
  output right to c.x
function b
  input x
  output o to d.fromB
function c
  input x
  output o to d.fromC
function d
  input fromB
  input fromC
  output out to $USER
`)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func switchWorkflow(t testing.TB) *workflow.Workflow {
	t.Helper()
	w, err := workflow.ParseDSLString(`
workflow sw
function gate
  input in from $USER
  output route type SWITCH to small.x, large.x
function small
  input x
  output o to $USER
function large
  input x
  output o to $USER
`)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func val(size int64) Value { return Value{Size: size} }

func TestStartReadiesEntry(t *testing.T) {
	tr := NewTracker(wcWorkflow(t))
	newly, err := tr.Start(map[string]Value{"start.src": val(100)})
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 1 || newly[0] != (InstanceKey{Fn: "start", Idx: 0}) {
		t.Fatalf("newly = %v", newly)
	}
}

func TestStartMissingInput(t *testing.T) {
	tr := NewTracker(wcWorkflow(t))
	if _, err := tr.Start(map[string]Value{}); err == nil {
		t.Fatal("missing user input accepted")
	}
}

func TestForeachFanout(t *testing.T) {
	tr := NewTracker(wcWorkflow(t))
	_, err := tr.Start(map[string]Value{"start.src": val(100)})
	if err != nil {
		t.Fatal(err)
	}
	// start emits 3 files via FOREACH.
	items, newly, err := tr.emit(InstanceKey{Fn: "start"}, "filelist",
		[]Value{val(10), val(20), val(30)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("items = %d, want 3", len(items))
	}
	// The FOREACH degree is the number of count instances it made ready.
	if len(newly) != 3 {
		t.Fatalf("newly ready = %v, want 3 count instances", newly)
	}
	for i, k := range newly {
		if k.Fn != "count" || k.Idx != i {
			t.Fatalf("newly[%d] = %v", i, k)
		}
	}
}

// TestFetcherNumbersEachReader: every item of a wc request gets the number of
// the instance that fetches it — distinct per instance, and shared by the two
// addresses of a single-instance function.
func TestFetcherNumbersEachReader(t *testing.T) {
	tr := NewTracker(wcWorkflow(t))
	if _, err := tr.Start(map[string]Value{"start.src": val(1)}); err != nil {
		t.Fatal(err)
	}
	items, _, err := tr.emit(InstanceKey{Fn: "start"}, "filelist", []Value{val(1), val(1), val(1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	start, count, merge := 0, 1, 2 // Function.Index, in declaration order
	seen := map[int]bool{start: true, count: true, merge: true}
	for _, it := range items {
		n := tr.Fetcher(it.ToFn(), it.To.Idx)
		if seen[n] || n != tr.Fetcher(count, it.To.Idx) {
			t.Fatalf("count[%d] fetches under %d, taken or not its own", it.To.Idx, n)
		}
		seen[n] = true
	}
	if tr.Fetcher(count, BroadcastIdx) != count {
		t.Fatal("a fanned function's shared input is not filed under the function")
	}
	if tr.Fetcher(merge, BroadcastIdx) != merge || tr.Fetcher(merge, 0) != merge {
		t.Fatal("a single-instance function's two addresses fetch under different numbers")
	}
}

func TestMergeRequiresAllBranches(t *testing.T) {
	tr := NewTracker(wcWorkflow(t))
	if _, err := tr.Start(map[string]Value{"start.src": val(1)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.emit(InstanceKey{Fn: "start"}, "filelist",
		[]Value{val(1), val(1), val(1)}, 0); err != nil {
		t.Fatal(err)
	}
	// Two of three count instances emit: merge must not be ready.
	for i := 0; i < 2; i++ {
		_, newly, err := tr.emit(InstanceKey{Fn: "count", Idx: i}, "result", []Value{val(5)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(newly) != 0 {
			t.Fatalf("merge ready after %d/3 branches: %v", i+1, newly)
		}
	}
	_, newly, err := tr.emit(InstanceKey{Fn: "count", Idx: 2}, "result", []Value{val(5)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 1 || newly[0].Fn != "merge" {
		t.Fatalf("merge not ready after all branches: %v", newly)
	}
	// Its List input must hold 3 values, ordered by producer instance.
	ins := tr.InputsAppend(nil, InstanceKey{Fn: "merge"})
	if len(ins) != 1 || ins[0].Name != "counts" || len(ins[0].Values) != 3 {
		t.Fatalf("merge inputs = %v", ins)
	}
}

func TestListNotReadyBeforeFanoutKnown(t *testing.T) {
	tr := NewTracker(wcWorkflow(t))
	// Deliver a merge item directly before the FOREACH fixed the degree.
	items, err := tr.RouteAppend(nil, InstanceKey{Fn: "count", Idx: 0}, "result", []Value{val(1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	newly, err := tr.DeliverInto(nil, items[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 0 {
		t.Fatal("merge became ready with unknown fan-in size")
	}
}

func TestDiamondNeedsBothInputs(t *testing.T) {
	tr := NewTracker(diamondWorkflow(t))
	if _, err := tr.Start(map[string]Value{"a.in": val(1)}); err != nil {
		t.Fatal(err)
	}
	aKey := InstanceKey{Fn: "a"}
	_, newly, err := tr.emit(aKey, "left", []Value{val(1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 1 || newly[0].Fn != "b" {
		t.Fatalf("b not ready: %v", newly)
	}
	_, newly, _ = tr.emit(aKey, "right", []Value{val(1)}, 0)
	if len(newly) != 1 || newly[0].Fn != "c" {
		t.Fatalf("c not ready: %v", newly)
	}
	// d needs both b and c.
	_, newly, _ = tr.emit(InstanceKey{Fn: "b"}, "o", []Value{val(1)}, 0)
	if len(newly) != 0 {
		t.Fatalf("d ready with one input: %v", newly)
	}
	_, newly, _ = tr.emit(InstanceKey{Fn: "c"}, "o", []Value{val(1)}, 0)
	if len(newly) != 1 || newly[0].Fn != "d" {
		t.Fatalf("d not ready: %v", newly)
	}
}

func TestSwitchRoutesOnlyChosen(t *testing.T) {
	tr := NewTracker(switchWorkflow(t))
	if _, err := tr.Start(map[string]Value{"gate.in": val(1)}); err != nil {
		t.Fatal(err)
	}
	items, newly, err := tr.emit(InstanceKey{Fn: "gate"}, "route", []Value{val(9)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].To.Fn != "large" {
		t.Fatalf("items = %v", items)
	}
	if len(newly) != 1 || newly[0].Fn != "large" {
		t.Fatalf("newly = %v", newly)
	}
	if tr.isReadyKey(InstanceKey{Fn: "small"}) {
		t.Fatal("small should not be ready")
	}
	// Completion: expected user items decidable after switch fired.
	if _, known := tr.ExpectedUserItems(); !known {
		t.Fatal("expected user items should be known after switch fired")
	}
	_, _, err = tr.emit(InstanceKey{Fn: "large"}, "o", []Value{val(1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Complete() {
		t.Fatal("request should be complete")
	}
}

func TestSwitchExpectedUnknownBeforeFiring(t *testing.T) {
	tr := NewTracker(switchWorkflow(t))
	if _, known := tr.ExpectedUserItems(); known {
		t.Fatal("expectation should be unknown before switch fires")
	}
}

func TestSwitchCaseOutOfRange(t *testing.T) {
	tr := NewTracker(switchWorkflow(t))
	_, _, err := tr.emit(InstanceKey{Fn: "gate"}, "route", []Value{val(1)}, 5)
	if err == nil {
		t.Fatal("out-of-range switch case accepted")
	}
}

func TestCompleteWordCount(t *testing.T) {
	tr := NewTracker(wcWorkflow(t))
	if tr.Complete() {
		t.Fatal("complete before start")
	}
	_, _ = tr.Start(map[string]Value{"start.src": val(1)})
	_, _, _ = tr.emit(InstanceKey{Fn: "start"}, "filelist", []Value{val(1), val(2)}, 0)
	for i := 0; i < 2; i++ {
		_, _, _ = tr.emit(InstanceKey{Fn: "count", Idx: i}, "result", []Value{val(1)}, 0)
	}
	if tr.Complete() {
		t.Fatal("complete before merge emitted")
	}
	_, _, err := tr.emit(InstanceKey{Fn: "merge"}, "out", []Value{val(3)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Complete() {
		t.Fatal("should be complete")
	}
	if len(tr.UserItems()) != 1 {
		t.Fatalf("user items = %v", tr.UserItems())
	}
}

func TestEmitErrors(t *testing.T) {
	tr := NewTracker(wcWorkflow(t))
	if _, _, err := tr.emit(InstanceKey{Fn: "ghost"}, "o", []Value{val(1)}, 0); err == nil {
		t.Fatal("unknown function accepted")
	}
	if _, _, err := tr.emit(InstanceKey{Fn: "start"}, "ghost", []Value{val(1)}, 0); err == nil {
		t.Fatal("unknown output accepted")
	}
	if _, _, err := tr.emit(InstanceKey{Fn: "start"}, "filelist", nil, 0); err == nil {
		t.Fatal("empty FOREACH accepted")
	}
	if _, _, err := tr.emit(InstanceKey{Fn: "merge"}, "out", []Value{val(1), val(2)}, 0); err == nil {
		t.Fatal("multi-value NORMAL accepted")
	}
}

func TestConflictingFanout(t *testing.T) {
	tr := NewTracker(wcWorkflow(t))
	_, _ = tr.Start(map[string]Value{"start.src": val(1)})
	if _, _, err := tr.emit(InstanceKey{Fn: "start"}, "filelist", []Value{val(1), val(2)}, 0); err != nil {
		t.Fatal(err)
	}
	// A second emission with a different degree must be rejected.
	if _, _, err := tr.emit(InstanceKey{Fn: "start"}, "filelist", []Value{val(1)}, 0); err == nil {
		t.Fatal("conflicting fan-out accepted")
	}
}

func TestDeliverToUnknownFunction(t *testing.T) {
	tr := NewTracker(wcWorkflow(t))
	_, err := tr.DeliverInto(nil, Item{To: InstanceKey{Fn: "ghost"}, Input: "x", Value: val(1)})
	if err == nil {
		t.Fatal("unknown destination accepted")
	}
	// An item built by hand is refused even to a declared function: the
	// tracker files only what its plan routed.
	if _, err := tr.DeliverInto(nil, Item{To: InstanceKey{Fn: "merge"}, Input: "counts", Value: val(1)}); err == nil {
		t.Fatal("an unrouted item was accepted")
	}
}

func TestInstancesEnumeration(t *testing.T) {
	tr := NewTracker(wcWorkflow(t))
	// Before fan-out: start and merge known (1 each), count unknown.
	inst := tr.instances()
	if len(inst) != 2 {
		t.Fatalf("instances = %v", inst)
	}
	_, _ = tr.Start(map[string]Value{"start.src": val(1)})
	_, _, _ = tr.emit(InstanceKey{Fn: "start"}, "filelist", []Value{val(1), val(1), val(1)}, 0)
	inst = tr.instances()
	if len(inst) != 5 { // start, 3×count, merge
		t.Fatalf("instances = %v", inst)
	}
}

// Property: for any fan-out degree K, merge readiness requires exactly K
// merge emissions and the request completes after the merge output.
func TestFanoutCompletionProperty(t *testing.T) {
	w := wcWorkflow(t)
	f := func(kRaw uint8) bool {
		k := int(kRaw%16) + 1
		tr := NewTracker(w)
		if _, err := tr.Start(map[string]Value{"start.src": val(1)}); err != nil {
			return false
		}
		vals := make([]Value, k)
		for i := range vals {
			vals[i] = val(int64(i + 1))
		}
		if _, _, err := tr.emit(InstanceKey{Fn: "start"}, "filelist", vals, 0); err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			_, newly, err := tr.emit(InstanceKey{Fn: "count", Idx: i}, "result", []Value{val(1)}, 0)
			if err != nil {
				return false
			}
			ready := len(newly) == 1 && newly[0].Fn == "merge"
			if i < k-1 && ready {
				return false
			}
			if i == k-1 && !ready {
				return false
			}
		}
		if tr.Complete() {
			return false
		}
		if _, _, err := tr.emit(InstanceKey{Fn: "merge"}, "out", []Value{val(1)}, 0); err != nil {
			return false
		}
		return tr.Complete()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
