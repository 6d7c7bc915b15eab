package dataflow

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/workflow"
)

// refTracker is the firing rule written the obvious way, for
// FuzzTrackerModel to hold the Tracker against: every routed item is kept,
// and every question — who is ready, what an instance reads, how many user
// items are due — is answered by scanning them from the workflow's own
// declarations, with no plan, no index and no incremental state.
type refTracker struct {
	wf      *workflow.Workflow
	fanout  map[string]int // fixed by a FOREACH emission; absent while unknown
	chosen  map[string]int // "fn.output" -> SWITCH case taken
	perUser map[string]int // "fn.output" -> elements a FOREACH sent the user
	items   []Item         // every delivered item, in delivery order
	ready   map[InstanceKey]bool
}

func newRefTracker(wf *workflow.Workflow) *refTracker {
	return &refTracker{wf: wf, fanout: map[string]int{}, chosen: map[string]int{},
		perUser: map[string]int{}, ready: map[InstanceKey]bool{}}
}

// fanned reports whether some FOREACH output targets fn.
func (r *refTracker) fanned(fn string) bool {
	for _, e := range r.wf.Edges() {
		if e.To == fn && e.Kind == workflow.Foreach {
			return true
		}
	}
	return false
}

// instanceCount is fn's instance count and whether it is known.
func (r *refTracker) instanceCount(fn string) (int, bool) {
	if !r.fanned(fn) {
		return 1, true
	}
	n, ok := r.fanout[fn]
	return n, ok
}

// route is RouteAppend's contract: the items one emission addresses.
func (r *refTracker) route(from InstanceKey, output string, values []Value, switchCase int) []Item {
	f, _ := r.wf.Function(from.Fn)
	var o workflow.Output
	for _, o = range f.Outputs {
		if o.Name == output {
			break
		}
	}
	var out []Item
	add := func(d workflow.Dest, idx int, v Value) {
		to := InstanceKey{Fn: d.Function, Idx: idx}
		if d.Function == workflow.UserSource {
			to = UserKey
		}
		out = append(out, Item{From: from, Output: output, To: to, Input: d.Input, Value: v})
	}
	switch o.Kind {
	case workflow.Foreach:
		for _, d := range o.Dests {
			if d.Function == workflow.UserSource {
				r.perUser[from.Fn+"."+output] = len(values)
			} else {
				r.fanout[d.Function] = len(values)
			}
			for i, v := range values {
				add(d, i, v)
			}
		}
	case workflow.Switch:
		r.chosen[from.Fn+"."+output] = switchCase
		add(o.Dests[switchCase], BroadcastIdx, values[0])
	default:
		for _, d := range o.Dests {
			add(d, BroadcastIdx, values[0])
		}
	}
	return out
}

// values returns what instance key has received on its input in, in the
// order InputsAppend promises: arrival order, and for a LIST input branch
// order (producing function name, then instance), arrival order among ties.
func (r *refTracker) values(key InstanceKey, in workflow.Input) []Value {
	var got []Item
	for _, it := range r.items {
		if it.To.Fn == key.Fn && it.Input == in.Name && (it.To.Idx == key.Idx || it.To.Idx == BroadcastIdx) {
			got = append(got, it)
		}
	}
	if in.Kind == workflow.List {
		sort.SliceStable(got, func(i, j int) bool {
			if got[i].From.Fn != got[j].From.Fn {
				return got[i].From.Fn < got[j].From.Fn
			}
			return got[i].From.Idx < got[j].From.Idx
		})
	}
	vals := []Value{}
	for _, it := range got {
		vals = append(vals, it.Value)
	}
	return vals
}

// satisfied is the firing rule: every input holds at least one value, a
// LIST input one from every instance of every edge feeding it.
func (r *refTracker) satisfied(key InstanceKey) bool {
	f, _ := r.wf.Function(key.Fn)
	for _, in := range f.Inputs {
		want := 1
		if in.Kind == workflow.List {
			want = 0
			for _, e := range r.wf.Edges() {
				if e.To == key.Fn && e.ToInput == in.Name {
					n, known := r.instanceCount(e.From)
					if !known {
						return false
					}
					want += n
				}
			}
		}
		if len(r.values(key, in)) < want {
			return false
		}
	}
	return true
}

// deliver files an item and returns the instances it made ready, sorted.
func (r *refTracker) deliver(it Item) []InstanceKey {
	r.items = append(r.items, it)
	var newly []InstanceKey
	for _, f := range r.wf.Functions {
		n, known := r.instanceCount(f.Name)
		for idx := 0; known && idx < n; idx++ {
			key := InstanceKey{Fn: f.Name, Idx: idx}
			if !r.ready[key] && r.satisfied(key) {
				r.ready[key] = true
				newly = append(newly, key)
			}
		}
	}
	sortKeys(newly)
	return newly
}

// userItems returns the items delivered to the user, in delivery order.
func (r *refTracker) userItems() []Item {
	var out []Item
	for _, it := range r.items {
		if it.To == UserKey {
			out = append(out, it)
		}
	}
	return out
}

// expected walks the functions the request will run — all edges but the
// SWITCH cases not taken — and counts what reaches the user.
func (r *refTracker) expected() (int, bool) {
	run := map[string]bool{}
	stack := []string{}
	for _, f := range r.wf.Entries() {
		stack = append(stack, f.Name)
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if run[fn] {
			continue
		}
		run[fn] = true
		f, _ := r.wf.Function(fn)
		for _, o := range f.Outputs {
			dests := o.Dests
			if o.Kind == workflow.Switch {
				c, fired := r.chosen[fn+"."+o.Name]
				if !fired {
					return 0, false
				}
				dests = dests[c : c+1]
			}
			for _, d := range dests {
				if d.Function != workflow.UserSource {
					stack = append(stack, d.Function)
				}
			}
		}
	}
	total := 0
	for fn := range run {
		n, known := r.instanceCount(fn)
		if !known {
			return 0, false
		}
		f, _ := r.wf.Function(fn)
		for _, o := range f.Outputs {
			dests := o.Dests
			if o.Kind == workflow.Switch {
				dests = dests[r.chosen[fn+"."+o.Name]:][:1]
			}
			for _, d := range dests {
				if d.Function != workflow.UserSource {
					continue
				}
				if o.Kind == workflow.Foreach {
					k, fired := r.perUser[fn+"."+o.Name]
					if !fired {
						return 0, false
					}
					total += n * k
				} else {
					total += n
				}
			}
		}
	}
	return total, true
}

// deepInputs copies ins and the values they hold.
func deepInputs(ins []InputVals) []InputVals {
	out := make([]InputVals, len(ins))
	for i, in := range ins {
		out[i] = InputVals{Name: in.Name, Values: append([]Value{}, in.Values...)}
	}
	return out
}

func sortKeys(keys []InstanceKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Fn != keys[j].Fn {
			return keys[i].Fn < keys[j].Fn
		}
		return keys[i].Idx < keys[j].Idx
	})
}

// fuzzBytes hands out the fuzzer's bytes as bounded choices, 0 once spent.
type fuzzBytes []byte

func (b *fuzzBytes) pick(n int) int {
	if n <= 1 || len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// fuzzWorkflow decodes a small DAG: two to six functions, each fed by an
// earlier one (so every function is reachable), a few more edges, and user
// outputs. Edges come in every kind — a NORMAL chain or diamond, FOREACH
// into a NORMAL or a LIST input, MERGE into a LIST, a SWITCH between a
// function and the user or two functions — and function names are shuffled
// against declaration order, so a LIST's branch order is not the index
// order. No function feeds one LIST input twice: branch order leaves the
// order of one producer instance's two items to arrival, which is not a
// property of the graph.
func fuzzWorkflow(b *fuzzBytes) *workflow.Workflow {
	n := 2 + b.pick(5)
	letters := []byte("abcdef")[:n]
	for i := n - 1; i > 0; i-- {
		j := b.pick(i + 1)
		letters[i], letters[j] = letters[j], letters[i]
	}
	fns := make([]*workflow.Function, n)
	for i := range fns {
		fns[i] = &workflow.Function{Name: string(letters[i])}
	}
	fns[0].Inputs = []workflow.Input{{Name: "in", FromUser: true}}
	if n > 2 && b.pick(4) == 0 {
		fns[1].Inputs = append(fns[1].Inputs, workflow.Input{Name: "u", FromUser: true})
	}
	normal := func(to int) workflow.Dest {
		name := fmt.Sprintf("n%d", len(fns[to].Inputs))
		fns[to].Inputs = append(fns[to].Inputs, workflow.Input{Name: name})
		return workflow.Dest{Function: fns[to].Name, Input: name}
	}
	fedLists := map[[2]int]bool{}
	list := func(from, to int) (workflow.Dest, bool) {
		if fedLists[[2]int{from, to}] {
			return workflow.Dest{}, false
		}
		fedLists[[2]int{from, to}] = true
		if _, ok := fns[to].Input("l"); !ok {
			fns[to].Inputs = append(fns[to].Inputs, workflow.Input{Name: "l", Kind: workflow.List})
		}
		return workflow.Dest{Function: fns[to].Name, Input: "l"}, true
	}
	user := workflow.Dest{Function: workflow.UserSource}
	edge := func(from, to int) {
		o := workflow.Output{Name: fmt.Sprintf("o%d", len(fns[from].Outputs))}
		switch b.pick(4) {
		case 0:
			o.Dests = []workflow.Dest{normal(to)}
			if b.pick(3) == 0 {
				o.Dests = append(o.Dests, user)
			}
		case 1:
			o.Kind = workflow.Foreach
			var d workflow.Dest
			ok := false
			if b.pick(2) == 0 {
				d, ok = list(from, to)
			}
			if !ok {
				d = normal(to)
			}
			o.Dests = []workflow.Dest{d}
			if b.pick(3) == 0 {
				o.Dests = append(o.Dests, user)
			}
		case 2:
			o.Kind = workflow.Merge
			d, ok := list(from, to)
			if !ok {
				o.Kind, d = workflow.Normal, normal(to)
			}
			o.Dests = []workflow.Dest{d}
		default:
			o.Kind = workflow.Switch
			o.Dests = []workflow.Dest{normal(to), user}
			if other := from + 1 + b.pick(n-1-from); other != to {
				o.Dests[1] = normal(other)
			}
			if b.pick(2) == 0 {
				o.Dests[0], o.Dests[1] = o.Dests[1], o.Dests[0]
			}
		}
		fns[from].Outputs = append(fns[from].Outputs, o)
	}
	for to := 1; to < n; to++ {
		edge(b.pick(to), to)
	}
	for extra := b.pick(4); extra > 0; extra-- {
		from := b.pick(n - 1)
		edge(from, from+1+b.pick(n-1-from))
	}
	for _, f := range fns {
		if len(f.Outputs) == 0 || b.pick(3) == 0 {
			o := workflow.Output{Name: fmt.Sprintf("o%d", len(f.Outputs)), Dests: []workflow.Dest{user}}
			if b.pick(4) == 0 {
				o.Kind = workflow.Foreach
			}
			f.Outputs = append(f.Outputs, o)
		}
	}
	w := workflow.New("fuzz")
	for _, f := range fns {
		if err := w.AddFunction(f); err != nil {
			return nil
		}
	}
	if w.Validate() != nil {
		return nil
	}
	return w
}

// fuzzRequest drives one request through tr and ref alike, in the order the
// bytes choose — which routed item lands next, which ready instance runs
// next, which SWITCH case and FOREACH degree each emission takes — and
// fails on the first disagreement. A FOREACH into a function emits the
// degree the first emission into it drew (conflicting degrees are an error
// of the emitter's, not a firing rule). Validate refuses SWITCH and FOREACH
// on a FOREACH-fanned function, so the per-emission draws are per instance.
// byIndex selects the engine's entry points (StartBytesInto,
// InputsAppendBacking, RouteIndexed, DeliverReady, with recycled buffers)
// over the by-name ones.
func fuzzRequest(t *testing.T, tr *Tracker, w *workflow.Workflow, b *fuzzBytes, byIndex bool) {
	ref := newRefTracker(w)
	var seq int64
	value := func() Value { seq++; return Value{Payload: []byte{byte(seq)}, Size: seq} }
	names := map[string]int{}
	for _, f := range w.Functions {
		names[f.Name] = f.Index()
	}
	input := map[string]Value{}
	bytesIn := map[string][]byte{}
	for _, e := range w.Plan().Entries {
		v := value()
		if byIndex { // StartBytes sizes a value by its payload
			v.Size = int64(len(v.Payload))
		}
		input[e.Key], bytesIn[e.Key] = v, v.Payload
	}
	var (
		queue    []InstanceKey
		pending  []Item
		readyBuf []Ready
		itemBuf  []Item
		inBuf    []InputVals
		valBuf   []Value
		fetched  = map[InstanceKey][2][]InputVals{} // as handed out, and a copy
		degree   = map[string]int{}                 // a FOREACH target's fan-out, once drawn
	)
	var newly []InstanceKey
	var err error
	if byIndex {
		readyBuf, err = tr.StartBytesInto(readyBuf[:0], bytesIn)
		newly = keysOf(nil, readyBuf)
	} else {
		newly, err = tr.Start(input)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []InstanceKey
	for _, e := range w.Plan().Entries {
		want = append(want, ref.deliver(Item{From: UserKey, Output: "input",
			To: InstanceKey{Fn: e.Fn.Name, Idx: BroadcastIdx}, Input: e.Fn.Inputs[e.Pos].Name, Value: input[e.Key]})...)
	}
	check := func(what string, got, want []InstanceKey) {
		t.Helper()
		sortKeys(got)
		sortKeys(want)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: tracker readied %v, the reference %v", what, got, want)
			}
		}
		queue = append(queue, got...)
		gotN, gotKnown := tr.ExpectedUserItems()
		wantN, wantKnown := ref.expected()
		if gotKnown != wantKnown || (wantKnown && gotN != wantN) {
			t.Fatalf("%s: ExpectedUserItems = %d,%v, the reference %d,%v", what, gotN, gotKnown, wantN, wantKnown)
		}
		if wantDone := wantKnown && len(ref.userItems()) >= wantN; tr.Complete() != wantDone {
			t.Fatalf("%s: Complete = %v, the reference %v", what, !wantDone, wantDone)
		}
	}
	check("start", newly, want)
	inputsOf := func(key InstanceKey) []InputVals {
		if byIndex {
			inBuf, valBuf = tr.InputsAppendBacking(inBuf[:0], valBuf[:0], names[key.Fn], key)
			return inBuf
		}
		return tr.InputsAppend(nil, key)
	}
	compareInputs := func(what string, key InstanceKey, got []InputVals) {
		t.Helper()
		f, _ := w.Function(key.Fn)
		var want []InputVals
		for _, in := range f.Inputs {
			want = append(want, InputVals{Name: in.Name, Values: ref.values(key, in)})
		}
		for i := range got {
			if got[i].Values == nil {
				got[i].Values = []Value{}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %v reads %v, the reference %v", what, key, got, want)
		}
	}
	for steps := 0; steps < 400 && (len(queue) > 0 || len(pending) > 0); steps++ {
		if len(pending) > 0 && (len(queue) == 0 || b.pick(2) == 0) {
			i := b.pick(len(pending))
			it := pending[i]
			pending = append(pending[:i], pending[i+1:]...)
			if byIndex {
				readyBuf, err = tr.DeliverReady(readyBuf[:0], &it)
				newly = keysOf(nil, readyBuf)
			} else {
				newly, err = tr.DeliverInto(nil, it)
			}
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("delivering %s.%s->%v.%s", it.From, it.Output, it.To, it.Input), newly, ref.deliver(it))
			continue
		}
		i := b.pick(len(queue))
		key := queue[i]
		queue = append(queue[:i], queue[i+1:]...)
		got := inputsOf(key)
		compareInputs("run", key, got)
		if !byIndex { // the engine's backing is the caller's to reuse
			fetched[key] = [2][]InputVals{got, deepInputs(got)}
		}
		f, _ := w.Function(key.Fn)
		for _, o := range f.Outputs {
			vals := []Value{value()}
			sc := 0
			switch o.Kind {
			case workflow.Foreach:
				k := 1 + b.pick(4)
				for _, d := range o.Dests {
					if d.Function != workflow.UserSource {
						if n, ok := degree[d.Function]; ok {
							k = n
						}
						degree[d.Function] = k
					}
				}
				for len(vals) < k {
					vals = append(vals, value())
				}
			case workflow.Switch:
				sc = b.pick(len(o.Dests))
			}
			var items []Item
			if byIndex {
				itemBuf, err = tr.RouteIndexed(itemBuf[:0], names[key.Fn], key, o.Name, vals, sc)
				items = itemBuf
			} else {
				items, err = tr.RouteAppend(nil, key, o.Name, vals, sc)
			}
			if err != nil {
				t.Fatalf("%v emitting %s: %v", key, o.Name, err)
			}
			wantItems := ref.route(key, o.Name, vals, sc)
			if len(items) != len(wantItems) {
				t.Fatalf("%v.%s routed %d items, the reference %d", key, o.Name, len(items), len(wantItems))
			}
			for j := range items {
				g, r := items[j], wantItems[j]
				if g.From != r.From || g.Output != r.Output || g.To != r.To || g.Input != r.Input || !reflect.DeepEqual(g.Value, r.Value) {
					t.Fatalf("%v.%s item %d = %+v, the reference %+v", key, o.Name, j, g, r)
				}
			}
			pending = append(pending, items...)
		}
	}
	// What an instance read stays what it read, and reads the same again.
	for key, got := range fetched {
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("%v's inputs changed under it: %v, read as %v", key, got[0], got[1])
		}
		compareInputs("refetched", key, inputsOf(key))
	}
	gotUser, wantUser := tr.UserItems(), ref.userItems()
	if len(gotUser) != len(wantUser) {
		t.Fatalf("user items: %d, the reference %d", len(gotUser), len(wantUser))
	}
	for i := range gotUser {
		g, r := gotUser[i], wantUser[i]
		if g.From != r.From || g.Output != r.Output || g.To != r.To || g.Input != r.Input || !reflect.DeepEqual(g.Value, r.Value) {
			t.Fatalf("user item %d = %+v, the reference %+v", i, g, r)
		}
	}
}

// FuzzTrackerModel holds the Tracker against refTracker on small decoded
// DAGs and delivery orders: the instances each delivery readies, what each
// instance reads (a LIST in branch order), the expected user-item count,
// Complete, and the user items. Each input runs two requests on one
// recycled Tracker — the second through the engine's entry points — so a
// Reset that leaves state behind fails too.
func FuzzTrackerModel(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0, 0, 0, 0, 0, 0},          // two functions, NORMAL chain
		{2, 0, 1, 1, 0, 1, 2, 0, 3, 9, 7}, // FOREACH then MERGE
		{3, 1, 2, 0, 0, 0, 1, 3, 2, 1, 0, 0, 2, 5, 1, 4, 3, 2, 1, 0, 7, 7},
		{4, 3, 2, 1, 0, 0, 1, 0, 3, 1, 2, 2, 0, 1, 2, 1, 1, 0, 3, 3, 1, 0, 2, 2, 9, 8, 7, 6, 5, 4},
		{1, 0, 0, 3, 0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 0, 1},
		// A fanned function's own per-instance emissions, which Validate
		// refuses: admitted, the tracker's expected user-item count
		// disagrees with the reference's.
		[]byte("0+0x*'1)1c7001001000100001201007B10001010"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		w := fuzzWorkflow(&b)
		if w == nil {
			return
		}
		var tr Tracker
		tr.Init(w, "")
		fuzzRequest(t, &tr, w, &b, false)
		tr.Reset()
		tr.Init(w, "")
		fuzzRequest(t, &tr, w, &b, true)
	})
}
