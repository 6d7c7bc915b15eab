package workflow

import (
	"encoding/json"
	"strings"
	"testing"
)

// buildWordCount constructs the paper's Figure 7 WordCount workflow via the
// builder API.
func buildWordCount(t *testing.T) *Workflow {
	t.Helper()
	w := New("wordcount")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.AddFunction(&Function{
		Name:   "start",
		Inputs: []Input{{Name: "src", FromUser: true}},
		Outputs: []Output{{
			Name: "filelist", Kind: Foreach,
			Dests: []Dest{{Function: "count", Input: "file"}},
		}},
	}))
	must(w.AddFunction(&Function{
		Name:   "count",
		Inputs: []Input{{Name: "file"}},
		Outputs: []Output{{
			Name: "result", Kind: Merge,
			Dests: []Dest{{Function: "merge", Input: "counts"}},
		}},
	}))
	must(w.AddFunction(&Function{
		Name:   "merge",
		Inputs: []Input{{Name: "counts", Kind: List}},
		Outputs: []Output{{
			Name:  "out",
			Dests: []Dest{{Function: UserSource}},
		}},
	}))
	if err := w.Validate(); err != nil {
		t.Fatalf("wordcount should validate: %v", err)
	}
	return w
}

func TestValidateWordCount(t *testing.T) {
	buildWordCount(t)
}

func TestEntriesAndTerminals(t *testing.T) {
	w := buildWordCount(t)
	ent := w.Entries()
	if len(ent) != 1 || ent[0].Name != "start" {
		t.Fatalf("entries = %v", ent)
	}
	term := w.Terminals()
	if len(term) != 1 || term[0].Name != "merge" {
		t.Fatalf("terminals = %v", term)
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	w := buildWordCount(t)
	if s := w.Successors("start"); len(s) != 1 || s[0] != "count" {
		t.Fatalf("succ(start) = %v", s)
	}
	if p := w.Predecessors("merge"); len(p) != 1 || p[0] != "count" {
		t.Fatalf("pred(merge) = %v", p)
	}
	if p := w.Predecessors("start"); len(p) != 0 {
		t.Fatalf("pred(start) = %v", p)
	}
}

func TestTopoOrder(t *testing.T) {
	w := buildWordCount(t)
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if !(pos["start"] < pos["count"] && pos["count"] < pos["merge"]) {
		t.Fatalf("bad topo order %v", order)
	}
}

// TestTopoOrderTwoEdgesToOneConsumer: a function feeding two inputs of one
// consumer is one dependency, not a cycle.
func TestTopoOrderTwoEdgesToOneConsumer(t *testing.T) {
	w, err := ParseDSLString(`
workflow two
function split
  input src from $USER
  output parts type FOREACH to work.part
  output conf to work.conf
function work
  input part
  input conf
  output out to $USER
`)
	if err != nil {
		t.Fatal(err)
	}
	if order, err := w.TopoOrder(); err != nil || len(order) != 2 || order[0] != "split" {
		t.Fatalf("order %v, err %v", order, err)
	}
}

func TestCriticalPathLen(t *testing.T) {
	w := buildWordCount(t)
	if got := w.CriticalPathLen(); got != 3 {
		t.Fatalf("critical path = %d, want 3", got)
	}
}

func TestCycleDetected(t *testing.T) {
	w := New("cyc")
	_ = w.AddFunction(&Function{
		Name:    "a",
		Inputs:  []Input{{Name: "in", FromUser: true}, {Name: "loop"}},
		Outputs: []Output{{Name: "o", Dests: []Dest{{Function: "b", Input: "in"}}}},
	})
	_ = w.AddFunction(&Function{
		Name:   "b",
		Inputs: []Input{{Name: "in"}},
		Outputs: []Output{
			{Name: "o", Dests: []Dest{{Function: "a", Input: "loop"}}},
			{Name: "end", Dests: []Dest{{Function: UserSource}}},
		},
	})
	if _, err := w.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Validate should report cycle, got %v", err)
	}
}

func TestValidateCatchesUnknownDest(t *testing.T) {
	w := New("bad")
	_ = w.AddFunction(&Function{
		Name:    "a",
		Inputs:  []Input{{Name: "in", FromUser: true}},
		Outputs: []Output{{Name: "o", Dests: []Dest{{Function: "ghost", Input: "x"}}}},
	})
	err := w.Validate()
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("want unknown-destination error, got %v", err)
	}
}

func TestValidateCatchesUnfedInput(t *testing.T) {
	w := New("bad")
	_ = w.AddFunction(&Function{
		Name:    "a",
		Inputs:  []Input{{Name: "in", FromUser: true}, {Name: "orphan"}},
		Outputs: []Output{{Name: "o", Dests: []Dest{{Function: UserSource}}}},
	})
	err := w.Validate()
	if err == nil || !strings.Contains(err.Error(), "orphan") {
		t.Fatalf("want unfed-input error, got %v", err)
	}
}

func TestValidateCatchesMergeToNormal(t *testing.T) {
	w := New("bad")
	_ = w.AddFunction(&Function{
		Name:    "a",
		Inputs:  []Input{{Name: "in", FromUser: true}},
		Outputs: []Output{{Name: "o", Kind: Merge, Dests: []Dest{{Function: "b", Input: "x"}}}},
	})
	_ = w.AddFunction(&Function{
		Name:    "b",
		Inputs:  []Input{{Name: "x"}}, // Normal, but fed by MERGE
		Outputs: []Output{{Name: "o", Dests: []Dest{{Function: UserSource}}}},
	})
	err := w.Validate()
	if err == nil || !strings.Contains(err.Error(), "MERGE") {
		t.Fatalf("want merge-kind error, got %v", err)
	}
}

func TestValidateCatchesNormalToList(t *testing.T) {
	w := New("bad")
	_ = w.AddFunction(&Function{
		Name:    "a",
		Inputs:  []Input{{Name: "in", FromUser: true}},
		Outputs: []Output{{Name: "o", Dests: []Dest{{Function: "b", Input: "x"}}}},
	})
	_ = w.AddFunction(&Function{
		Name:    "b",
		Inputs:  []Input{{Name: "x", Kind: List}},
		Outputs: []Output{{Name: "o", Dests: []Dest{{Function: UserSource}}}},
	})
	err := w.Validate()
	if err == nil || !strings.Contains(err.Error(), "LIST") {
		t.Fatalf("want normal-to-list error, got %v", err)
	}
}

func TestValidateSwitchNeedsTwoDests(t *testing.T) {
	w := New("bad")
	_ = w.AddFunction(&Function{
		Name:    "a",
		Inputs:  []Input{{Name: "in", FromUser: true}},
		Outputs: []Output{{Name: "o", Kind: Switch, Dests: []Dest{{Function: UserSource}}}},
	})
	err := w.Validate()
	if err == nil || !strings.Contains(err.Error(), "SWITCH") {
		t.Fatalf("want switch error, got %v", err)
	}
}

func TestValidateUnreachable(t *testing.T) {
	w := New("bad")
	_ = w.AddFunction(&Function{
		Name:    "a",
		Inputs:  []Input{{Name: "in", FromUser: true}},
		Outputs: []Output{{Name: "o", Dests: []Dest{{Function: UserSource}}}},
	})
	_ = w.AddFunction(&Function{
		Name:    "island",
		Inputs:  []Input{{Name: "x", FromUser: false, Kind: Normal}},
		Outputs: []Output{{Name: "o", Dests: []Dest{{Function: UserSource}}}},
	})
	err := w.Validate()
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("want unreachable error, got %v", err)
	}
}

func TestAddFunctionDuplicate(t *testing.T) {
	w := New("dup")
	f := &Function{Name: "a"}
	if err := w.AddFunction(f); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFunction(&Function{Name: "a"}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := w.AddFunction(&Function{Name: UserSource}); err == nil {
		t.Fatal("$USER accepted as function name")
	}
	if err := w.AddFunction(&Function{}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestEdgesResolveInputKinds(t *testing.T) {
	w := buildWordCount(t)
	edges := w.Edges()
	if len(edges) != 3 {
		t.Fatalf("edges = %d, want 3", len(edges))
	}
	var countToMerge *Edge
	for i := range edges {
		if edges[i].From == "count" {
			countToMerge = &edges[i]
		}
	}
	if countToMerge == nil || countToMerge.InputKind != List || countToMerge.Kind != Merge {
		t.Fatalf("count->merge edge wrong: %+v", countToMerge)
	}
}

func TestEdgeKindStringRoundTrip(t *testing.T) {
	for _, k := range []EdgeKind{Normal, Foreach, Merge, Switch, List} {
		got, err := ParseEdgeKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ParseEdgeKind("BOGUS"); err == nil {
		t.Fatal("BOGUS accepted")
	}
	if k, err := ParseEdgeKind(""); err != nil || k != Normal {
		t.Fatal("empty string should default to NORMAL")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := buildWordCount(t)
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back Workflow
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != w.Name || len(back.Functions) != len(w.Functions) {
		t.Fatalf("round trip mismatch: name=%q functions=%d", back.Name, len(back.Functions))
	}
	f, ok := back.Function("count")
	if !ok {
		t.Fatal("count missing after round trip")
	}
	if f.Outputs[0].Kind != Merge {
		t.Fatalf("kind lost: %v", f.Outputs[0].Kind)
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var w Workflow
	err := json.Unmarshal([]byte(`{"name":"x","functions":[{"name":"a","inputs":[],"outputs":[]}]}`), &w)
	if err == nil {
		t.Fatal("invalid workflow accepted from JSON")
	}
}

func TestFunctionLookups(t *testing.T) {
	w := buildWordCount(t)
	f, ok := w.Function("count")
	if !ok {
		t.Fatal("count not found")
	}
	if _, ok := f.Input("file"); !ok {
		t.Fatal("input file not found")
	}
	if _, ok := f.Input("nope"); ok {
		t.Fatal("phantom input found")
	}
	if _, ok := w.Function("nope"); ok {
		t.Fatal("phantom function found")
	}
}

// TestPlanResolvesTheGraph pins what a request walks instead of looking up
// by name: destinations as (function index, input position), the producers
// behind each input, the FOREACH-target flag, the in-degree, and the entry
// inputs with their map keys — also for a graph Validate would refuse (a
// NORMAL input fed by both arms of a SWITCH, an unknown destination), which
// the plan must describe rather than trip over.
func TestPlanResolvesTheGraph(t *testing.T) {
	w := buildWordCount(t)
	p := w.Plan()
	if got, want := p.Entries, []EntryInput{{Fn: w.Functions[0], Pos: 0, Key: "start.src"}}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("entries = %+v, want %+v", got, want)
	}
	start, count, merge := &p.Fns[0], &p.Fns[1], &p.Fns[2]
	if start.Fanned || !count.Fanned || merge.Fanned {
		t.Fatalf("fanned = %v %v %v, want only count", start.Fanned, count.Fanned, merge.Fanned)
	}
	if start.InDegree != 0 || count.InDegree != 1 || merge.InDegree != 1 {
		t.Fatalf("in-degrees = %d %d %d, want 0 1 1", start.InDegree, count.InDegree, merge.InDegree)
	}
	if d := start.Dests[0][0]; d != (DestRef{Fn: 1, Pos: 0}) {
		t.Fatalf("start.filelist resolves to %+v, want count's input 0", d)
	}
	if d := merge.Dests[0][0]; d.Fn != -1 {
		t.Fatalf("merge.out resolves to function %d, want -1 ($USER)", d.Fn)
	}
	if f := merge.Feeders[0]; len(f) != 1 || f[0] != 1 {
		t.Fatalf("merge.counts is fed by %v, want [1] (count)", f)
	}

	arms := New("arms")
	for _, f := range []*Function{
		{Name: "gate", Inputs: []Input{{Name: "in", FromUser: true}, {Name: "cfg", FromUser: true}},
			Outputs: []Output{{Name: "route", Kind: Switch, Dests: []Dest{{Function: "small", Input: "x"}, {Function: "large", Input: "x"}}}}},
		{Name: "small", Inputs: []Input{{Name: "x"}},
			Outputs: []Output{{Name: "o", Dests: []Dest{{Function: "join", Input: "v"}, {Function: "ghost", Input: "x"}}}}},
		{Name: "large", Inputs: []Input{{Name: "x"}},
			Outputs: []Output{{Name: "o", Dests: []Dest{{Function: "join", Input: "v"}, {Function: "join", Input: "nope"}}}}},
		{Name: "join", Inputs: []Input{{Name: "pad"}, {Name: "v"}},
			Outputs: []Output{{Name: "out", Dests: []Dest{{Function: UserSource}}}}},
	} {
		if err := arms.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	p = arms.Plan()
	if len(p.Entries) != 2 || p.Entries[0].Key != "gate.in" || p.Entries[1].Key != "gate.cfg" || p.Entries[1].Pos != 1 {
		t.Fatalf("entries = %+v", p.Entries)
	}
	join := &p.Fns[3]
	if join.InDegree != 2 || len(join.Feeders[0]) != 0 || len(join.Feeders[1]) != 2 {
		t.Fatalf("join: in-degree %d, feeders %v; want 2, both on input 1", join.InDegree, join.Feeders)
	}
	if d := p.Fns[1].Dests[0]; d[0] != (DestRef{Fn: 3, Pos: 1}) || d[1].Fn != -1 {
		t.Fatalf("small.o resolves to %+v, want join's input 1 and an unknown function", d)
	}
	if d := p.Fns[2].Dests[0][1]; d != (DestRef{Fn: 3, Pos: -1}) {
		t.Fatalf("large.o -> join.nope resolves to %+v, want join with no input", d)
	}
}

// TestValidateFannedFunctionOutputs: a FOREACH-fanned function (b, fed by
// a's FOREACH) may only MERGE into a LIST or send NORMAL to the user; every
// other output is refused by function and output name. A single-instance
// function keeps every kind.
func TestValidateFannedFunctionOutputs(t *testing.T) {
	const head = `
workflow fan
function a
  input in from $USER
  output parts type FOREACH to b.x
function b
  input x
`
	const merger = `
function c
  input l type LIST
  output o to $USER
`
	const single = `
function d
  input n
  output o to $USER
`
	for _, tc := range []struct {
		name, outputs string
		refused       bool
	}{
		{"merge into a LIST", "  output o type MERGE to c.l\n", false},
		{"normal to the user", "  output o to $USER\n  output m type MERGE to c.l\n", false},
		{"merge and normal to the user", "  output o type MERGE to c.l\n  output u to $USER\n", false},
		{"foreach to the user", "  output o type FOREACH to $USER\n  output m type MERGE to c.l\n", true},
		{"switch", "  output o type SWITCH to d.n, $USER\n  output m type MERGE to c.l\n", true},
		{"normal into a NORMAL input", "  output o to d.n\n  output m type MERGE to c.l\n", true},
		{"normal to the user and a function", "  output o to $USER, d.n\n  output m type MERGE to c.l\n", true},
		{"nested foreach", "  output o type FOREACH to d.n\n  output m type MERGE to c.l\n", true},
		{"merge to the user", "  output o type MERGE to c.l, $USER\n", true},
	} {
		src := head + tc.outputs + merger
		if strings.Contains(tc.outputs, "d.n") {
			src += single
		}
		_, err := ParseDSLString(src)
		switch {
		case !tc.refused && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.refused && (err == nil || !strings.Contains(err.Error(), "function b output o: a FOREACH-fanned function")):
			t.Errorf("%s: want b.o refused as a fanned function's output, got %v", tc.name, err)
		}
	}
	// The same kinds on a function FOREACH does not fan are accepted.
	if _, err := ParseDSLString(`
workflow single
function a
  input in from $USER
  output parts type FOREACH to $USER
  output route type SWITCH to d.n, $USER
function d
  input n
  output o to $USER
`); err != nil {
		t.Fatalf("single-instance FOREACH and SWITCH refused: %v", err)
	}
}
