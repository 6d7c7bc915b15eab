// Package dataflow implements the execution semantics of a workflow's
// data-flow graph for a single request: routing emitted data to destination
// function instances, tracking dynamic fan-out degrees, and deciding when an
// instance's inputs are all available (the data-availability triggering rule
// at the heart of DataFlower).
//
// Terminology: a *function instance* is one invocation of a function for one
// workflow request; Foreach fan-out creates several instances of the
// destination function. An *item* is one piece of data addressed to one
// input slot of one instance (or to the user).
package dataflow

import (
	"fmt"
	"sort"

	"repro/internal/workflow"
)

// BroadcastIdx addresses all current and future instances of a function.
const BroadcastIdx = -1

// InstanceKey identifies a function instance within one request.
type InstanceKey struct {
	Fn  string
	Idx int
}

// String formats the key as fn[idx].
func (k InstanceKey) String() string { return fmt.Sprintf("%s[%d]", k.Fn, k.Idx) }

// UserKey is the pseudo-instance representing the workflow invoker.
var UserKey = InstanceKey{Fn: workflow.UserSource, Idx: 0}

// Value is one datum produced by a function: its bytes plus their size (the
// simulation plane sets and reads only Size; the runtime plane carries real
// payloads). Payload is a byte slice, not an interface, so routing a value
// never boxes it.
type Value struct {
	Payload []byte
	Size    int64
}

// Item is one routed datum: Value addressed to an input slot.
type Item struct {
	From   InstanceKey
	Output string
	To     InstanceKey // To.Idx may be BroadcastIdx
	Input  string      // empty when To is the user
	// Replica is the ordinal of the destination replica the routing plane
	// selected for this item (0 = primary). The tracker routes items with
	// Replica 0; an engine shipping to a non-primary replica stamps the
	// ordinal so sink keys are replica-qualified and a consumer landing on
	// the same replica derives the identical key.
	Replica int
	Value   Value

	// toFn and toPos stamp the destination's function index plus one and the
	// position of Input among its inputs, from the workflow plan where the
	// item is made (RouteIndexed, start): a delivery indexes instead of hashing
	// names, and refuses an item built by hand (toFn 0).
	toFn, toPos int32
}

// ToFn returns the destination's workflow.Function.Index (-1: the user).
func (it *Item) ToFn() int { return int(it.toFn) - 1 }

// Ready is an instance that became ready and its workflow.Function.Index.
type Ready struct {
	Key InstanceKey
	Fn  int
}

// keysOf appends the keys of ready to dst (the by-name entry points).
func keysOf(dst []InstanceKey, ready []Ready) []InstanceKey {
	for _, r := range ready {
		dst = append(dst, r.Key)
	}
	return dst
}

// Tracker tracks one request's data-flow state. It is not safe for
// concurrent use; callers serialize access (the DES is single-threaded, the
// runtime engine guards it with a mutex).
type Tracker struct {
	wf   *workflow.Workflow
	plan *workflow.Plan

	// fns holds the per-function tracking state, indexed by
	// workflow.Function.Index: item recording and readiness checks address
	// state by function, input and instance position instead of hashing
	// nested string-keyed maps on every delivery.
	fns []fnTrack

	userItems []Item

	// switchChosen[fn.output] records the chosen case for SWITCH outputs.
	switchChosen map[string]int
	// foreachUser[fn.output] records, for FOREACH outputs that target the
	// user, how many elements each producing instance emitted.
	foreachUser map[string]int

	// expectTotal/expectFinal memoize ExpectedUserItems once it becomes
	// final: switch choices and fan-out degrees are write-once, so a final
	// expectation can never change — and engines re-check completion on
	// every delivered item, which would otherwise re-walk the graph.
	expectTotal int
	expectFinal bool

	// Inline seeds of fns and userItems (and fnTrack.bc0Buf of bc0): a small
	// request allocates no tracker state, a slice that outgrows its seed
	// reallocates. An initialized Tracker points into itself: do not copy it.
	fnsBuf  [4]fnTrack
	userBuf [1]Item
}

// fanoutState is the instance count of one function plus whether the count
// is final (functions targeted by FOREACH outputs are unknown until the
// producer emits).
type fanoutState struct {
	n     int
	known bool
}

// arrival is what the tracker keeps of a delivered item: the value, and the
// producer that orders a LIST input. The rest of an Item addresses the
// delivery, and the slot it is filed under says the same.
type arrival struct {
	from InstanceKey
	val  Value
}

// fnTrack is one function's per-request tracking state.
type fnTrack struct {
	f      *workflow.Function
	fanout fanoutState
	// readyBits marks instances 0..63 that became ready at some point;
	// readyOver spills the (rare) instances beyond 64. The split keeps the
	// dominant small-fan-out case allocation-free.
	readyBits uint64
	readyOver []bool
	// Broadcast items addressed to all instances: input position 0 is
	// inlined (most functions declare one input), positions >= 1 live in
	// bcMore, allocated on first such arrival.
	bc0    []arrival
	bc0Buf [1]arrival
	bcMore [][]arrival
	// arrived[idx][inputPos] holds instance-addressed items; the outer
	// slice grows with the instance index, inner slices on first arrival.
	arrived [][][]arrival
}

// isReady reports whether instance idx has become ready.
func (ft *fnTrack) isReady(idx int) bool {
	if idx < 64 {
		return ft.readyBits&(1<<uint(idx)) != 0
	}
	over := idx - 64
	return over < len(ft.readyOver) && ft.readyOver[over]
}

// markReady records instance idx as ready.
func (ft *fnTrack) markReady(idx int) {
	if idx < 64 {
		ft.readyBits |= 1 << uint(idx)
		return
	}
	over := idx - 64
	for len(ft.readyOver) <= over {
		ft.readyOver = append(ft.readyOver, false)
	}
	ft.readyOver[over] = true
}

// broadcastAt returns the broadcast items of the input at pos.
func (ft *fnTrack) broadcastAt(pos int) []arrival {
	if pos == 0 {
		return ft.bc0
	}
	if ft.bcMore == nil {
		return nil
	}
	return ft.bcMore[pos-1]
}

// broadcastAppend files a broadcast item under the input at pos.
func (ft *fnTrack) broadcastAppend(pos int, a arrival) {
	if pos == 0 {
		ft.bc0 = append(ft.bc0, a)
		return
	}
	if ft.bcMore == nil {
		ft.bcMore = make([][]arrival, len(ft.f.Inputs)-1)
	}
	ft.bcMore[pos-1] = append(ft.bcMore[pos-1], a)
}

// arrivedAt returns the instance-addressed items of (instance idx, input
// pos).
func (ft *fnTrack) arrivedAt(idx, pos int) []arrival {
	if idx < 0 || idx >= len(ft.arrived) || ft.arrived[idx] == nil {
		return nil
	}
	return ft.arrived[idx][pos]
}

// NewTracker returns a tracker for one request over wf. The workflow must be
// valid (workflow.Validate).
func NewTracker(wf *workflow.Workflow) *Tracker {
	t := new(Tracker)
	t.Init(wf, "")
	return t
}

// Init initializes t in place for one request over wf — NewTracker without
// the Tracker allocation, for callers that embed the tracker in a larger
// per-request record. Any previous state is discarded. The string is
// unused: the tracker never names its request.
func (t *Tracker) Init(wf *workflow.Workflow, _ string) {
	if t.wf != nil {
		t.Reset()
	}
	// switchChosen and foreachUser allocate lazily on first write; most
	// requests never touch them.
	t.wf, t.plan, t.userItems = wf, wf.Plan(), t.userBuf[:0]
	if n := len(wf.Functions); n <= len(t.fnsBuf) {
		t.fns = t.fnsBuf[:n]
	} else {
		t.fns = make([]fnTrack, n)
	}
	// Functions not targeted by any FOREACH output have exactly one
	// instance, known immediately.
	for i, f := range wf.Functions {
		ft := &t.fns[i]
		ft.f, ft.bc0 = f, ft.bc0Buf[:0]
		if !t.plan.Fns[i].Fanned {
			ft.fanout = fanoutState{n: 1, known: true}
		}
	}
	// Switch- and foreach-free workflows deliver a topology-determined item
	// count; seeding the memo spares every request the expectation walk.
	if n, ok := wf.StaticUserItems(); ok {
		t.expectTotal, t.expectFinal = n, true
	}
}

// Reset discards the request's state — every payload reference with it — so
// t holds nothing until the next Init. It clears only what the request used
// (the function entries and user items in play, and the seeds behind them),
// not the whole inline-seeded record.
func (t *Tracker) Reset() {
	clear(t.fns)
	clear(t.userItems)
	if cap(t.userItems) > len(t.userBuf) {
		clear(t.userBuf[:]) // a stale copy from before userItems outgrew it
	}
	t.wf, t.plan = nil, nil
	t.fns, t.userItems = nil, nil
	t.switchChosen, t.foreachUser = nil, nil
	t.expectTotal, t.expectFinal = 0, false
}

// setFanout fixes the instance count of a FOREACH-targeted function.
func (ft *fnTrack) setFanout(k int) error {
	fn := ft.f.Name
	if ft.fanout.known {
		if ft.fanout.n != k {
			return fmt.Errorf("dataflow: conflicting fan-out for %s: %d then %d", fn, ft.fanout.n, k)
		}
		return nil
	}
	if k < 1 {
		return fmt.Errorf("dataflow: fan-out for %s must be >= 1, got %d", fn, k)
	}
	ft.fanout = fanoutState{n: k, known: true}
	return nil
}

// Start routes the user-supplied entry inputs and returns the instances that
// became ready. userInput provides a value for every entry input, keyed by
// "function.input".
func (t *Tracker) Start(userInput map[string]Value) ([]InstanceKey, error) {
	ready, err := t.start(nil, userInput, nil)
	return keysOf(nil, ready), err
}

// StartBytes is Start for raw byte payloads keyed by "function.input".
func (t *Tracker) StartBytes(userInput map[string][]byte) ([]InstanceKey, error) {
	ready, err := t.start(nil, nil, userInput)
	return keysOf(nil, ready), err
}

// StartBytesInto is StartBytes appending the ready instances to the caller's
// dst. On error dst is returned ungrown.
func (t *Tracker) StartBytesInto(dst []Ready, userInput map[string][]byte) ([]Ready, error) {
	return t.start(dst, nil, userInput)
}

// start routes the plan's entry inputs from whichever of the two maps is
// non-nil (two parameters, not a lookup closure: this runs per request).
func (t *Tracker) start(dst []Ready, vals map[string]Value, bytes map[string][]byte) ([]Ready, error) {
	newly := dst
	for i := range t.plan.Entries {
		e := &t.plan.Entries[i]
		var v Value
		var ok bool
		if bytes != nil {
			var b []byte
			b, ok = bytes[e.Key]
			v = Value{Payload: b, Size: int64(len(b))}
		} else {
			v, ok = vals[e.Key]
		}
		if !ok {
			return dst, fmt.Errorf("dataflow: missing user input %s", e.Key)
		}
		it := Item{
			From:   UserKey,
			Output: "input",
			To:     InstanceKey{Fn: e.Fn.Name, Idx: BroadcastIdx},
			Input:  e.Fn.Inputs[e.Pos].Name,
			Value:  v,
			toFn:   int32(e.Fn.Index() + 1),
			toPos:  int32(e.Pos),
		}
		ft, err := t.record(&it)
		if err != nil {
			return dst, err
		}
		newly = t.checkReady(newly, ft)
	}
	return newly, nil
}

// RouteAppend appends to dst the destination items of one output emission,
// without delivering them (the engine calls DeliverReady when the bytes
// land). It fixes fan-out degrees (FOREACH) and records SWITCH choices as a
// side effect, since both are known at emission time. For a FOREACH output,
// values carries one Value per fan-out element; for every other kind it
// carries exactly one Value. switchCase selects the destination for SWITCH
// outputs (ignored otherwise). On error dst is returned ungrown.
func (t *Tracker) RouteAppend(dst []Item, from InstanceKey, output string, values []Value, switchCase int) ([]Item, error) {
	f, ok := t.wf.Function(from.Fn)
	if !ok {
		return dst, fmt.Errorf("dataflow: unknown function %s", from.Fn)
	}
	return t.RouteIndexed(dst, f.Index(), from, output, values, switchCase)
}

// RouteIndexed is RouteAppend for the producer of workflow.Function.Index fn.
func (t *Tracker) RouteIndexed(dst []Item, fn int, from InstanceKey, output string, values []Value, switchCase int) ([]Item, error) {
	f := t.fns[fn].f
	oi := 0
	for oi < len(f.Outputs) && f.Outputs[oi].Name != output {
		oi++
	}
	if oi == len(f.Outputs) {
		return dst, fmt.Errorf("dataflow: %s has no output %s", from.Fn, output)
	}
	o, refs := &f.Outputs[oi], t.plan.Fns[f.Index()].Dests[oi]
	items := dst
	switch o.Kind {
	case workflow.Foreach:
		if len(values) == 0 {
			return dst, fmt.Errorf("dataflow: FOREACH output %s.%s emitted no values", from.Fn, output)
		}
		for di, d := range o.Dests {
			if d.Function == workflow.UserSource {
				if t.foreachUser == nil {
					t.foreachUser = make(map[string]int)
				}
				t.foreachUser[from.Fn+"."+output] = len(values)
				for _, v := range values {
					items = append(items, Item{From: from, Output: output, To: UserKey, Value: v})
				}
				continue
			}
			ref := refs[di]
			if ref.Fn < 0 {
				return dst, fmt.Errorf("dataflow: unknown function %s", d.Function)
			}
			if err := t.fns[ref.Fn].setFanout(len(values)); err != nil {
				return dst, err
			}
			for i, v := range values {
				items = append(items, Item{
					From:   from,
					Output: output,
					To:     InstanceKey{Fn: d.Function, Idx: i},
					Input:  d.Input,
					Value:  v,
					toFn:   int32(ref.Fn + 1),
					toPos:  int32(ref.Pos),
				})
			}
		}
	case workflow.Switch:
		if len(values) != 1 {
			return dst, fmt.Errorf("dataflow: SWITCH output %s.%s needs exactly one value", from.Fn, output)
		}
		if switchCase < 0 || switchCase >= len(o.Dests) {
			return dst, fmt.Errorf("dataflow: SWITCH case %d out of range for %s.%s", switchCase, from.Fn, output)
		}
		if t.switchChosen == nil {
			t.switchChosen = make(map[string]int)
		}
		t.switchChosen[from.Fn+"."+output] = switchCase
		items = append(items, broadcastItem(from, output, o.Dests[switchCase], refs[switchCase], values[0]))
	default: // Normal, Merge
		if len(values) != 1 {
			return dst, fmt.Errorf("dataflow: output %s.%s needs exactly one value, got %d", from.Fn, output, len(values))
		}
		for di, d := range o.Dests {
			items = append(items, broadcastItem(from, output, d, refs[di], values[0]))
		}
	}
	return items, nil
}

// broadcastItem addresses v to every instance of d (resolved as ref), or to the user.
func broadcastItem(from InstanceKey, output string, d workflow.Dest, ref workflow.DestRef, v Value) Item {
	to := InstanceKey{Fn: d.Function, Idx: BroadcastIdx}
	if d.Function == workflow.UserSource {
		to = UserKey
	}
	return Item{From: from, Output: output, To: to, Input: d.Input, Value: v, toFn: int32(ref.Fn + 1), toPos: int32(ref.Pos)}
}

// DeliverInto records the arrival of one item at its destination and appends
// the instances that became ready as a result to dst. Engines that move items
// through the network call it when the bytes land in the destination sink.
func (t *Tracker) DeliverInto(dst []InstanceKey, it Item) ([]InstanceKey, error) {
	var buf [4]Ready
	ready, err := t.DeliverReady(buf[:0], &it)
	return keysOf(dst, ready), err
}

// DeliverReady is DeliverInto handing out Ready instances, reading the item
// in place: the engine delivers from its shipping backing without a copy.
func (t *Tracker) DeliverReady(dst []Ready, it *Item) ([]Ready, error) {
	ft, err := t.record(it)
	if err != nil || ft == nil {
		return dst, err
	}
	return t.checkReady(dst, ft), nil
}

// record files one delivered item under its destination slot and returns
// the destination's tracking state (nil for a user item). Items for
// undeclared inputs are dropped (they could never satisfy a readiness
// check, matching the previous map-based behaviour where they were stored
// but never consulted).
func (t *Tracker) record(it *Item) (*fnTrack, error) {
	if it.To.Fn == workflow.UserSource {
		t.userItems = append(t.userItems, *it)
		return nil, nil
	}
	fi, pos := int(it.toFn)-1, int(it.toPos)
	if fi < 0 {
		return nil, fmt.Errorf("dataflow: item to %s was not routed by the plan", it.To)
	}
	ft := &t.fns[fi]
	if pos < 0 {
		return ft, nil
	}
	a := arrival{from: it.From, val: it.Value}
	if it.To.Idx == BroadcastIdx {
		ft.broadcastAppend(pos, a)
		return ft, nil
	}
	idx := it.To.Idx
	if idx < 0 {
		return nil, fmt.Errorf("dataflow: item to invalid instance %s", it.To)
	}
	for len(ft.arrived) <= idx {
		ft.arrived = append(ft.arrived, nil)
	}
	if ft.arrived[idx] == nil {
		ft.arrived[idx] = make([][]arrival, len(ft.f.Inputs))
	}
	ft.arrived[idx][pos] = append(ft.arrived[idx][pos], a)
	return ft, nil
}

// checkReady appends the newly satisfied instances of ft's function to dst.
func (t *Tracker) checkReady(dst []Ready, ft *fnTrack) []Ready {
	if !ft.fanout.known {
		return dst // fan-out degree not fixed yet: no instance may start
	}
	for idx := 0; idx < ft.fanout.n; idx++ {
		if ft.isReady(idx) {
			continue
		}
		if t.inputsSatisfied(ft, idx) {
			ft.markReady(idx)
			dst = append(dst, Ready{Key: InstanceKey{Fn: ft.f.Name, Idx: idx}, Fn: ft.f.Index()})
		}
	}
	return dst
}

// inputsSatisfied reports whether every declared input of the instance has
// arrived (Normal: >= 1 value counting broadcasts; List: the full fan-in).
func (t *Tracker) inputsSatisfied(ft *fnTrack, idx int) bool {
	for pos, in := range ft.f.Inputs {
		got := len(ft.arrivedAt(idx, pos)) + len(ft.broadcastAt(pos))
		switch in.Kind {
		case workflow.List:
			want, known := t.expectedListCount(ft, pos)
			if !known || got < want {
				return false
			}
		default:
			if got < 1 {
				return false
			}
		}
	}
	return true
}

// expectedListCount returns how many items the List input at pos of ft must
// collect: the sum of the instance counts of every producer feeding it. The
// count is unknown until every producer's fan-out degree is known.
func (t *Tracker) expectedListCount(ft *fnTrack, pos int) (int, bool) {
	total := 0
	for _, from := range t.plan.Fns[ft.f.Index()].Feeders[pos] {
		fanout := t.fns[from].fanout
		if !fanout.known {
			return 0, false
		}
		total += fanout.n
	}
	return total, true
}

// byProducer merges a LIST input's arrivals in branch order: by producing
// function, then instance, arrival order breaking ties.
func byProducer(own, shared []arrival) []arrival {
	items := make([]arrival, 0, len(own)+len(shared))
	items = append(append(items, own...), shared...)
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].from.Fn != items[j].from.Fn {
			return items[i].from.Fn < items[j].from.Fn
		}
		return items[i].from.Idx < items[j].from.Idx
	})
	return items
}

// InputVals is one declared input's collected values, in declaration order
// within the InputsAppend result.
type InputVals struct {
	Name   string
	Values []Value
}

// InputsAppend appends one InputVals per declared input of the instance to
// dst and returns it. All values share one backing array. List (fan-in)
// inputs are ordered deterministically by the producing instance (function
// name, then instance index), so merge-style consumers see branch outputs
// in branch order regardless of network arrival order.
func (t *Tracker) InputsAppend(dst []InputVals, key InstanceKey) []InputVals {
	f, ok := t.wf.Function(key.Fn)
	if !ok {
		return dst
	}
	out, _ := t.InputsAppendBacking(dst, nil, f.Index(), key)
	return out
}

// InputsAppendBacking is InputsAppend reusing a caller-supplied value
// backing array too, so an engine recycling both buffers across instance
// runs fetches inputs without allocating; fn is key.Fn's Function.Index. It
// returns the grown dst and backing; the caller must keep them together and
// may only reuse them once it is done with the returned values.
func (t *Tracker) InputsAppendBacking(dst []InputVals, backing []Value, fn int, key InstanceKey) ([]InputVals, []Value) {
	ft := &t.fns[fn]
	total := 0
	for pos := range ft.f.Inputs {
		total += len(ft.arrivedAt(key.Idx, pos)) + len(ft.broadcastAt(pos))
	}
	if cap(backing) < total {
		backing = make([]Value, 0, total)
	} else {
		backing = backing[:0]
	}
	for pos, in := range ft.f.Inputs {
		own, shared := ft.arrivedAt(key.Idx, pos), ft.broadcastAt(pos)
		start := len(backing)
		if in.Kind == workflow.List {
			for _, a := range byProducer(own, shared) {
				backing = append(backing, a.val)
			}
		} else {
			for _, a := range own {
				backing = append(backing, a.val)
			}
			for _, a := range shared {
				backing = append(backing, a.val)
			}
		}
		dst = append(dst, InputVals{Name: in.Name, Values: backing[start:len(backing):len(backing)]})
	}
	return dst, backing
}

// UserItems returns the items delivered to the user so far.
func (t *Tracker) UserItems() []Item { return t.userItems }

// ExpectedUserItems returns the total number of items the user should
// eventually receive and whether that number is final. The expectation is
// undecidable (known == false) while a SWITCH on the executed path has not
// fired or while a fan-out degree on the executed path is still unknown.
func (t *Tracker) ExpectedUserItems() (int, bool) {
	if t.expectFinal {
		return t.expectTotal, true
	}
	// Compute the set of functions that will execute, following all edges
	// except un-taken SWITCH branches. If a reachable SWITCH has not fired
	// yet, the expectation is not final.
	reachable := make([]bool, len(t.wf.Functions))
	var stack []*workflow.Function
	stack = append(stack, t.wf.Entries()...)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reachable[f.Index()] {
			continue
		}
		reachable[f.Index()] = true
		for _, o := range f.Outputs {
			if o.Kind == workflow.Switch {
				chosen, fired := t.switchChosen[f.Name+"."+o.Name]
				if !fired {
					return 0, false
				}
				if d := o.Dests[chosen]; d.Function != workflow.UserSource {
					if df, ok := t.wf.Function(d.Function); ok {
						stack = append(stack, df)
					}
				}
				continue
			}
			for _, d := range o.Dests {
				if d.Function != workflow.UserSource {
					if df, ok := t.wf.Function(d.Function); ok {
						stack = append(stack, df)
					}
				}
			}
		}
	}
	total := 0
	for i, f := range t.wf.Functions {
		if !reachable[i] {
			continue
		}
		st := t.fns[i].fanout
		if !st.known {
			return 0, false
		}
		for _, o := range f.Outputs {
			if o.Kind == workflow.Switch {
				chosen := t.switchChosen[f.Name+"."+o.Name]
				if o.Dests[chosen].Function == workflow.UserSource {
					total += st.n
				}
				continue
			}
			for _, d := range o.Dests {
				if d.Function == workflow.UserSource {
					if o.Kind == workflow.Foreach {
						// Each element reaches the user separately; the count
						// is known only after the output has been emitted.
						n, fired := t.foreachUser[f.Name+"."+o.Name]
						if !fired {
							return 0, false
						}
						total += st.n * n
						continue
					}
					total += st.n
				}
			}
		}
	}
	t.expectTotal, t.expectFinal = total, true
	return total, true
}

// Complete reports whether the user has received every expected item.
func (t *Tracker) Complete() bool {
	want, known := t.ExpectedUserItems()
	return known && len(t.userItems) >= want
}
