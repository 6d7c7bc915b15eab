// Package workflow defines serverless workflows in the data-flow paradigm.
//
// A workflow is a set of functions connected by *data* edges (not control
// edges): each function declares the sources of its inputs and the
// destinations of its outputs, mirroring the declaration language of the
// paper's Figure 7. Edge kinds express the composition patterns of
// serverless workflow languages:
//
//   - Normal:  one data item flows to each destination input.
//   - Foreach: the output is a list; element i flows to instance i of the
//     destination function (dynamic fan-out).
//   - Merge:   the output of every instance of this function flows into a
//     single List input of the destination (fan-in).
//   - Switch:  exactly one of the declared destinations receives the data,
//     selected at run time by the producing function.
//
// The package provides a builder API, a text DSL parser (ParseDSL), a JSON
// codec, structural validation and graph utilities (topological order,
// predecessor/successor sets). The execution semantics live in
// internal/dataflow.
package workflow

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// EdgeKind describes how data fans out of an output or into an input.
type EdgeKind int

// Edge kinds. The zero value is Normal.
const (
	Normal EdgeKind = iota
	Foreach
	Merge
	Switch
	List // input-side: collect one item from every instance of each source
)

// String returns the DSL spelling of the kind.
func (k EdgeKind) String() string {
	switch k {
	case Normal:
		return "NORMAL"
	case Foreach:
		return "FOREACH"
	case Merge:
		return "MERGE"
	case Switch:
		return "SWITCH"
	case List:
		return "LIST"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// ParseEdgeKind converts a DSL spelling to an EdgeKind.
func ParseEdgeKind(s string) (EdgeKind, error) {
	switch s {
	case "NORMAL", "normal", "":
		return Normal, nil
	case "FOREACH", "foreach":
		return Foreach, nil
	case "MERGE", "merge":
		return Merge, nil
	case "SWITCH", "switch":
		return Switch, nil
	case "LIST", "list":
		return List, nil
	}
	return Normal, fmt.Errorf("workflow: unknown edge kind %q", s)
}

// UserSource is the pseudo-function representing the workflow invoker: entry
// inputs come from it and terminal outputs flow back to it.
const UserSource = "$USER"

// Dest is one destination of an output: an input slot of a function, or the
// user (Function == UserSource).
type Dest struct {
	Function string `json:"function"`        // destination function name or $USER
	Input    string `json:"input,omitempty"` // destination input name (empty for $USER)
}

// String formats the destination as function.input.
func (d Dest) String() string {
	if d.Function == UserSource || d.Input == "" {
		return d.Function
	}
	return d.Function + "." + d.Input
}

// Output declares one named output of a function and where it flows.
type Output struct {
	Name  string   `json:"name"`
	Kind  EdgeKind `json:"kind"`
	Dests []Dest   `json:"dests"`
}

// Input declares one named input of a function.
type Input struct {
	Name string   `json:"name"`
	Kind EdgeKind `json:"kind"` // Normal (single item) or List (fan-in)
	// FromUser marks an entry input supplied by the invoker.
	FromUser bool `json:"fromUser,omitempty"`
}

// Function is one node of the workflow: a FLU definition with declared
// inputs and outputs.
type Function struct {
	Name    string   `json:"name"`
	Inputs  []Input  `json:"inputs"`
	Outputs []Output `json:"outputs"`

	idx int // position in the owning workflow's Functions list
}

// Index returns the function's position in its workflow's Functions list,
// valid once the function is registered (AddFunction or reindex). Trackers
// use it to keep per-function state in slices instead of string-keyed maps.
func (f *Function) Index() int { return f.idx }

// Input returns the input declaration with the given name.
func (f *Function) Input(name string) (Input, bool) {
	for _, in := range f.Inputs {
		if in.Name == name {
			return in, true
		}
	}
	return Input{}, false
}

// Workflow is a named data-flow graph of functions. Once a workflow starts
// serving requests it must not be structurally modified: the derived index
// (name lookup, edge list, entries, static user-item count) is built once
// and shared by every request, rebuilt only when the function count
// changes.
type Workflow struct {
	Name      string      `json:"name"`
	Functions []*Function `json:"functions"`

	// index is the atomically published derived-data snapshot; indexMu
	// serializes (re)builds. Concurrent readers load the pointer, which
	// also publishes the Function.idx assignments made during the build.
	index   atomic.Pointer[wfIndex]
	indexMu sync.Mutex
}

// wfIndex is the immutable derived data of a workflow snapshot.
type wfIndex struct {
	n       int // len(Functions) this snapshot was built for
	byName  map[string]*Function
	edges   []Edge
	entries []*Function
	plan    Plan
}

// Plan is the part of the index a request walks instead of re-deriving it
// by name. Immutable and shared by every request; do not mutate.
type Plan struct {
	Fns     []FnPlan     // indexed by Function.Index
	Entries []EntryInput // the invoker's inputs, in declaration order
	// Slots and Outs are the request layout: input pos of function i is slot
	// Fns[i].Slot0+pos and its output o is Fns[i].Out0+o, so a request's
	// per-input and per-output state are two flat blocks addressed by offset.
	Slots, Outs int
	// StaticUser is the number of items every request delivers to the user
	// when topology alone fixes it — no SWITCH and no FOREACH output anywhere
	// in the workflow — and -1 otherwise. Trackers skip the per-request
	// expectation walk on it.
	StaticUser int
}

// FnPlan is one function's share of the Plan.
type FnPlan struct {
	Fanned   bool        // a FOREACH output targets it: its instance count is fixed at run time
	InDegree int         // workflow edges into it (the invoker's inputs are not edges)
	Feeders  [][]int     // Feeders[pos]: the producing function's index, per edge into the input at pos
	Dests    [][]DestRef // Dests[o][d] resolves Outputs[o].Dests[d]
	// Slot0 and Out0 place the function's inputs and outputs in the layout;
	// Rank is its position in name order, the branch order of a LIST input.
	Slot0, Out0, Rank int
}

// DestRef is a resolved Dest: the destination's function index (-1 for $USER
// and for a function the workflow does not declare) and the position of the
// input among its declared inputs (-1 when it declares none by that name).
type DestRef struct{ Fn, Pos int }

// EntryInput is one input the invoker supplies: Fn.Inputs[Pos], under Key
// ("function.input") in the invoker's input map.
type EntryInput struct {
	Fn  *Function
	Pos int
	Key string
}

// New returns an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{Name: name}
}

// AddFunction appends a function node. It returns an error on duplicate
// names or a name colliding with UserSource.
func (w *Workflow) AddFunction(f *Function) error {
	if f.Name == "" {
		return fmt.Errorf("workflow %s: function with empty name", w.Name)
	}
	if f.Name == UserSource {
		return fmt.Errorf("workflow %s: function name %s is reserved", w.Name, UserSource)
	}
	for _, g := range w.Functions {
		if g.Name == f.Name {
			return fmt.Errorf("workflow %s: duplicate function %q", w.Name, f.Name)
		}
	}
	f.idx = len(w.Functions)
	w.Functions = append(w.Functions, f)
	return nil
}

// Function returns the function with the given name.
func (w *Workflow) Function(name string) (*Function, bool) {
	f, ok := w.reindex().byName[name]
	return f, ok
}

// reindex returns the current index snapshot, building it if the function
// count changed (needed after JSON decoding). Safe for concurrent use.
func (w *Workflow) reindex() *wfIndex {
	if ix := w.index.Load(); ix != nil && ix.n == len(w.Functions) {
		return ix
	}
	w.indexMu.Lock()
	defer w.indexMu.Unlock()
	if ix := w.index.Load(); ix != nil && ix.n == len(w.Functions) {
		return ix
	}
	ix := &wfIndex{
		n:      len(w.Functions),
		byName: make(map[string]*Function, len(w.Functions)),
	}
	for i, f := range w.Functions {
		f.idx = i
		ix.byName[f.Name] = f
	}
	for _, f := range w.Functions {
		for _, in := range f.Inputs {
			if in.FromUser {
				ix.entries = append(ix.entries, f)
				break
			}
		}
	}
	if ix.entries == nil {
		ix.entries = []*Function{}
	}
	ix.edges = buildEdges(w.Functions, ix.byName)
	ix.plan = buildPlan(w.Functions, ix.byName)
	ix.plan.StaticUser = staticUserItems(w.Functions, ix)
	w.index.Store(ix)
	return ix
}

// Entries returns the functions that take at least one input from the user
// (cached in the index snapshot; do not mutate the returned slice).
func (w *Workflow) Entries() []*Function {
	return w.reindex().entries
}

// Plan returns the request plan of the current index snapshot.
func (w *Workflow) Plan() *Plan { return &w.reindex().plan }

// buildPlan resolves the Plan for a snapshot (Function.idx already set).
func buildPlan(fns []*Function, byName map[string]*Function) Plan {
	p := Plan{Fns: make([]FnPlan, len(fns))}
	byRank := make([]int, len(fns))
	for i, f := range fns {
		byRank[i] = i
		p.Fns[i].Slot0, p.Fns[i].Out0 = p.Slots, p.Outs
		p.Slots, p.Outs = p.Slots+len(f.Inputs), p.Outs+len(f.Outputs)
		p.Fns[i].Feeders = make([][]int, len(f.Inputs))
		for pos, in := range f.Inputs {
			if in.FromUser {
				p.Entries = append(p.Entries, EntryInput{Fn: f, Pos: pos, Key: f.Name + "." + in.Name})
			}
		}
	}
	for i, f := range fns {
		p.Fns[i].Dests = make([][]DestRef, len(f.Outputs))
		for oi, o := range f.Outputs {
			refs := make([]DestRef, len(o.Dests))
			for di, d := range o.Dests {
				refs[di] = DestRef{Fn: -1, Pos: -1}
				dst, ok := byName[d.Function]
				if !ok {
					continue
				}
				refs[di].Fn = dst.idx
				to := &p.Fns[dst.idx]
				to.Fanned = to.Fanned || o.Kind == Foreach
				for pos := range dst.Inputs {
					if dst.Inputs[pos].Name == d.Input {
						refs[di].Pos = pos
						to.InDegree++
						to.Feeders[pos] = append(to.Feeders[pos], i)
						break
					}
				}
			}
			p.Fns[i].Dests[oi] = refs
		}
	}
	sort.Slice(byRank, func(a, b int) bool { return fns[byRank[a]].Name < fns[byRank[b]].Name })
	for rank, i := range byRank {
		p.Fns[i].Rank = rank
	}
	return p
}

// staticUserItems computes Plan.StaticUser for a snapshot.
func staticUserItems(fns []*Function, ix *wfIndex) int {
	for _, f := range fns {
		for _, o := range f.Outputs {
			if o.Kind == Switch || o.Kind == Foreach {
				return -1
			}
		}
	}
	// Only functions reachable from an entry execute; without FOREACH every
	// reachable function has exactly one instance.
	reachable := make([]bool, len(fns))
	var stack []*Function
	stack = append(stack, ix.entries...)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reachable[f.idx] {
			continue
		}
		reachable[f.idx] = true
		for _, o := range f.Outputs {
			for _, d := range o.Dests {
				if d.Function == UserSource {
					continue
				}
				if df, ok := ix.byName[d.Function]; ok {
					stack = append(stack, df)
				}
			}
		}
	}
	total := 0
	for i, f := range fns {
		if !reachable[i] {
			continue
		}
		for _, o := range f.Outputs {
			for _, d := range o.Dests {
				if d.Function == UserSource {
					total++
				}
			}
		}
	}
	return total
}

// Terminals returns the functions with at least one output to the user.
func (w *Workflow) Terminals() []*Function {
	var out []*Function
	for _, f := range w.Functions {
		for _, o := range f.Outputs {
			for _, d := range o.Dests {
				if d.Function == UserSource {
					out = append(out, f)
					break
				}
			}
		}
	}
	return out
}

// Successors returns the distinct downstream function names of f, sorted.
func (w *Workflow) Successors(name string) []string {
	f, ok := w.reindex().byName[name]
	if !ok {
		return nil
	}
	set := map[string]struct{}{}
	for _, o := range f.Outputs {
		for _, d := range o.Dests {
			if d.Function != UserSource {
				set[d.Function] = struct{}{}
			}
		}
	}
	return sortedKeys(set)
}

// Predecessors returns the distinct upstream function names of name, sorted.
func (w *Workflow) Predecessors(name string) []string {
	set := map[string]struct{}{}
	for _, f := range w.Functions {
		for _, o := range f.Outputs {
			for _, d := range o.Dests {
				if d.Function == name {
					set[f.Name] = struct{}{}
				}
			}
		}
	}
	return sortedKeys(set)
}

// Edge is one resolved data edge of the graph.
type Edge struct {
	From       string   // producing function
	Output     string   // output name
	Kind       EdgeKind // output kind
	To         string   // consuming function or $USER
	ToInput    string   // consuming input name (empty for $USER)
	InputKind  EdgeKind // consuming input kind (Normal/List; Normal for $USER)
	SwitchCase int      // index among the output's dests (for Switch routing)
}

// Edges returns every data edge in declaration order.
func (w *Workflow) Edges() []Edge {
	return w.reindex().edges
}

// buildEdges materializes the edge list for an index snapshot.
func buildEdges(fns []*Function, byName map[string]*Function) []Edge {
	var out []Edge
	for _, f := range fns {
		for _, o := range f.Outputs {
			for i, d := range o.Dests {
				e := Edge{
					From:       f.Name,
					Output:     o.Name,
					Kind:       o.Kind,
					To:         d.Function,
					ToInput:    d.Input,
					SwitchCase: i,
				}
				if dst, ok := byName[d.Function]; ok {
					if in, ok := dst.Input(d.Input); ok {
						e.InputKind = in.Kind
					}
				}
				out = append(out, e)
			}
		}
	}
	return out
}

// TopoOrder returns the function names in a topological order of the data
// graph. It returns an error if the graph has a cycle.
func (w *Workflow) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(w.Functions))
	for _, f := range w.Functions {
		indeg[f.Name] = 0
	}
	// Counted per distinct successor, as the walk below decrements: a
	// function feeding two inputs of one consumer is one dependency.
	for _, f := range w.Functions {
		for _, s := range w.Successors(f.Name) {
			if _, ok := indeg[s]; ok {
				indeg[s]++
			}
		}
	}
	// Deterministic: seed queue in declaration order.
	var queue []string
	for _, f := range w.Functions {
		if indeg[f.Name] == 0 {
			queue = append(queue, f.Name)
		}
	}
	var order []string
	seen := map[string]bool{}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if seen[n] {
			continue
		}
		seen[n] = true
		order = append(order, n)
		for _, s := range w.Successors(n) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(w.Functions) {
		return nil, fmt.Errorf("workflow %s: cycle detected (%d of %d functions ordered)",
			w.Name, len(order), len(w.Functions))
	}
	return order, nil
}

// CriticalPathLen returns the number of functions on the longest path from
// any entry to any terminal (a depth measure used by experiments).
func (w *Workflow) CriticalPathLen() int {
	order, err := w.TopoOrder()
	if err != nil {
		return 0
	}
	depth := map[string]int{}
	best := 0
	for _, n := range order {
		d := 1
		for _, pre := range w.Predecessors(n) {
			if depth[pre]+1 > d {
				d = depth[pre] + 1
			}
		}
		depth[n] = d
		if d > best {
			best = d
		}
	}
	return best
}

func sortedKeys(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
