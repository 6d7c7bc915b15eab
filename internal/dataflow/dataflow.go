// Package dataflow implements the execution semantics of a workflow's
// data-flow graph for a single request: routing emitted data to destination
// function instances, tracking dynamic fan-out degrees, and deciding when an
// instance's inputs are all available (the data-availability triggering rule
// at the heart of DataFlower).
//
// The rule is a count. Every instance holds the number of its declared
// inputs still missing. A delivery that satisfies one — a NORMAL input's
// first value, or the value that brings a LIST input's count to the sum of
// its feeders' fan-out degrees — decrements it, and the instance fires at
// zero. An item addressed to every instance of a function (a broadcast)
// counts for each of them; a FOREACH-fanned function has no instances to
// count for until its degree is fixed.
//
// Terminology: a *function instance* is one invocation of a function for one
// workflow request; Foreach fan-out creates several instances of the
// destination function. An *item* is one piece of data addressed to one
// input slot of one instance (or to the user).
package dataflow

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

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
func (k InstanceKey) String() string {
	var b strings.Builder
	k.AppendTo(&b)
	return b.String()
}

// AppendTo writes the key's fn[idx] form to b without the fmt machinery (the
// index goes through a stack buffer): sink keys and stream ids name
// instances by it on the ship path.
func (k InstanceKey) AppendTo(b *strings.Builder) {
	var buf [20]byte
	b.WriteString(k.Fn)
	b.WriteByte('[')
	b.Write(strconv.AppendInt(buf[:0], int64(k.Idx), 10))
	b.WriteByte(']')
}

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
	Value  Value

	// toFn, toPos and fromFn stamp the plan's addressing where the item is
	// made (RouteIndexed): the destination's function index plus one (0: the
	// user), the position of Input among its inputs and the producer's
	// function index plus one. A delivery indexes instead of hashing names,
	// and refuses an item built by hand (nothing stamped).
	toFn          int32
	toPos, fromFn int16
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
// runtime engine guards it with a mutex). The state is laid out by the
// workflow's plan: a cell per (function, input) slot, then, once a FOREACH
// fixes a function's degree, a cell per (instance, input) of it; a
// missing-input counter per instance; a record per output. Cells hold their
// values in one arena, a LIST's in branch order, so inputs are views.
type Tracker struct {
	wf   *workflow.Workflow
	plan *workflow.Plan // wf's, read once per workflow, not per request

	fns   []fnRun  // by workflow.Function.Index
	cells []cell   // [0, plan.Slots): the slots; then fanned instances' cells
	miss  []int32  // missing inputs: [0, len(fns)) single instances; then fanned ones
	vals  []Value  // the cells' values
	keys  []uint64 // vals' branch-order keys: producer rank<<32 | instance
	// outs[plan.Fns[fn].Out0+o] records output o of fn: the SWITCH case taken
	// plus one, or how many elements a FOREACH sent the user (0: not yet).
	outs []int32
	// said[plan.Fns[fn].Out0+o] is the string a caller last named output o of
	// fn by, kept across requests: the same string again matches by pointer.
	said  []string
	user  []userItem // what reached the user, rebuilt into users on demand
	users []Item

	// expectTotal/expectFinal memoize ExpectedUserItems once it is final;
	// engines check completion on every delivery.
	expectTotal int
	expectFinal bool

	// Inline seeds of the blocks above: a small request on a fresh tracker
	// allocates nothing; a block that outgrows its seed is kept for the next
	// request. An initialized Tracker points into itself: do not copy it.
	fnBuf   [4]fnRun
	cellBuf [4]cell
	missBuf [4]int32
	valBuf  [4]Value
	keyBuf  [4]uint64
	outBuf  [4]int32
	saidBuf [4]string
	userBuf [1]userItem
	itemBuf [1]Item
}

// fnRun is one function's n instances (0 until a FOREACH fixes the degree):
// instance i's input pos is cells[cell+i*ins+pos], its missing count
// miss[miss+i]. A single-instance function's cells are its slots.
type fnRun struct {
	n, ins, cell, miss int32
}

// cell is the values one input slot holds — vals[off:off+n], with room for
// cap — and, in an instance's cell, whether the input is satisfied.
type cell struct {
	off, n, cap int32
	sat         bool
}

// userItem is what the tracker keeps of an item delivered to the user: its
// producer (function index, instance, output name) and value.
type userItem struct {
	fn  int32
	idx int32
	out string
	val Value
}

// unknown is the need of a LIST input a feeder's unfixed degree leaves open.
const unknown = math.MaxInt32

// NewTracker returns a tracker for one request over wf. The workflow must be
// valid (workflow.Validate).
func NewTracker(wf *workflow.Workflow) *Tracker {
	t := new(Tracker)
	t.Init(wf, "")
	return t
}

// seeded returns s resliced to n, or the inline seed, or a new array,
// whichever first holds n.
func seeded[T any](s, seed []T, n int) []T {
	if s != nil && cap(s) >= n {
		return s[:n]
	}
	if len(seed) >= n {
		return seed[:n]
	}
	return make([]T, n)
}

// Init initializes t in place for one request over wf, discarding any
// previous state — NewTracker for callers that embed the tracker in a
// per-request record. The string is unused. The plan is read, and the blocks
// sized, only when wf changes: a recycled tracker re-lengthens its blocks.
func (t *Tracker) Init(wf *workflow.Workflow, _ string) {
	t.Reset()
	if t.wf != wf || t.plan == nil {
		t.wf, t.plan = wf, wf.Plan()
		n, slots, outs := len(t.plan.Fns), t.plan.Slots, t.plan.Outs
		t.fns, t.miss = seeded(t.fns, t.fnBuf[:], n), seeded(t.miss, t.missBuf[:], n)
		t.cells, t.outs = seeded(t.cells, t.cellBuf[:], slots), seeded(t.outs, t.outBuf[:], outs)
		t.said = seeded(t.said, t.saidBuf[:], outs)
		clear(t.said)
		t.vals, t.keys = seeded(t.vals, t.valBuf[:], slots), seeded(t.keys, t.keyBuf[:], slots)
		t.user, t.users = seeded(t.user, t.userBuf[:], 0), seeded(t.users, t.itemBuf[:], 0)
	}
	p := t.plan
	// One statement each: re-slicing a field to itself writes only its length.
	t.miss = t.miss[:len(p.Fns)]
	t.cells = t.cells[:p.Slots]
	t.vals = t.vals[:p.Slots]
	t.keys = t.keys[:p.Slots]
	// Slot i's first value goes to vals[i]: a NORMAL input never moves.
	for i := range t.cells {
		t.cells[i] = cell{off: int32(i), cap: 1}
	}
	clear(t.outs)
	for i := range p.Fns {
		fp := &p.Fns[i]
		ins := int32(len(fp.Feeders))
		t.fns[i] = fnRun{n: 1, ins: ins, cell: int32(fp.Slot0), miss: int32(i)}
		if fp.Fanned {
			t.fns[i].n = 0
		}
		t.miss[i] = ins
	}
	// Switch- and foreach-free workflows deliver a topology-determined item
	// count; seeding the memo spares every request the expectation walk.
	t.expectTotal, t.expectFinal = p.StaticUser, p.StaticUser >= 0
}

// Reset discards the request's state — every payload reference with it — so
// t holds no payload until the next Init. It drops only the payloads; Init
// rewrites the rest.
func (t *Tracker) Reset() {
	for i := range t.vals {
		t.vals[i].Payload = nil
	}
	for i := range t.user {
		t.user[i].val.Payload = nil
	}
	for i := range t.users {
		t.users[i].Value.Payload = nil
	}
	if cap(t.vals) > len(t.valBuf) || cap(t.user) > len(t.userBuf) || cap(t.users) > len(t.itemBuf) {
		t.valBuf, t.userBuf, t.itemBuf = [4]Value{}, [1]userItem{}, [1]Item{} // a grown block's stale copies
	}
	t.vals = t.vals[:0]
	t.keys = t.keys[:0]
	t.user = t.user[:0]
	t.users = t.users[:0]
	t.expectTotal, t.expectFinal = 0, false
}

// setFanout fixes the instance count of a FOREACH-targeted function and lays
// out its instances' cells and counters.
func (t *Tracker) setFanout(fn, k int) error {
	f := &t.fns[fn]
	if f.n != 0 {
		if int(f.n) != k {
			return fmt.Errorf("dataflow: conflicting fan-out for %s: %d then %d", t.wf.Functions[fn].Name, f.n, k)
		}
		return nil
	}
	if k < 1 {
		return fmt.Errorf("dataflow: fan-out for %s must be >= 1, got %d", t.wf.Functions[fn].Name, k)
	}
	f.n, f.cell, f.miss = int32(k), int32(len(t.cells)), int32(len(t.miss))
	t.cells = append(t.cells, make([]cell, k*int(f.ins))...)
	t.miss = slices.Grow(t.miss, k)
	for i := 0; i < k; i++ {
		t.miss = append(t.miss, f.ins)
	}
	// Room in the arena for a value per instance cell, in one growth.
	t.vals, t.keys = slices.Grow(t.vals, k*int(f.ins)), slices.Grow(t.keys, k*int(f.ins))
	// Broadcasts that came first count for every instance. None fires one: a
	// FOREACH item for it is yet to come.
	slot0 := t.plan.Fns[fn].Slot0
	for pos := 0; pos < int(f.ins); pos++ {
		if got := t.cells[slot0+pos].n; got > 0 {
			need, _ := t.need(fn, pos)
			for i := 0; i < k; i++ {
				t.satisfy(nil, fn, i, pos, got, need)
			}
		}
	}
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
		newly = t.deliver(newly, e.Fn.Index(), e.Pos, BroadcastIdx, 0, v)
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
	f, fp := t.wf.Functions[fn], &t.plan.Fns[fn]
	oi := 0
	for oi < len(f.Outputs) && t.said[fp.Out0+oi] != output {
		oi++
	}
	if oi == len(f.Outputs) { // not named this way before: compare the names
		for oi = 0; oi < len(f.Outputs) && f.Outputs[oi].Name != output; oi++ {
		}
		if oi == len(f.Outputs) {
			return dst, fmt.Errorf("dataflow: %s has no output %s", from.Fn, output)
		}
		t.said[fp.Out0+oi] = output
	}
	o, refs, rec := &f.Outputs[oi], fp.Dests[oi], &t.outs[fp.Out0+oi]
	items := dst
	switch o.Kind {
	case workflow.Foreach:
		if len(values) == 0 {
			return dst, fmt.Errorf("dataflow: FOREACH output %s.%s emitted no values", from.Fn, output)
		}
		items = slices.Grow(items, len(values)*len(refs))
		for di := range o.Dests {
			d, ref := &o.Dests[di], refs[di]
			switch {
			case d.Function == workflow.UserSource:
				*rec = int32(len(values))
			case ref.Fn < 0:
				return dst, fmt.Errorf("dataflow: unknown function %s", d.Function)
			default:
				if err := t.setFanout(ref.Fn, len(values)); err != nil {
					return dst, err
				}
			}
			for i := range values {
				items = addItem(items, &from, output, fn, d, ref, i, &values[i])
			}
		}
	case workflow.Switch:
		if len(values) != 1 {
			return dst, fmt.Errorf("dataflow: SWITCH output %s.%s needs exactly one value", from.Fn, output)
		}
		if switchCase < 0 || switchCase >= len(o.Dests) {
			return dst, fmt.Errorf("dataflow: SWITCH case %d out of range for %s.%s", switchCase, from.Fn, output)
		}
		*rec = int32(switchCase + 1)
		items = addItem(items, &from, output, fn, &o.Dests[switchCase], refs[switchCase], BroadcastIdx, &values[0])
	default: // Normal, Merge
		if len(values) != 1 {
			return dst, fmt.Errorf("dataflow: output %s.%s needs exactly one value, got %d", from.Fn, output, len(values))
		}
		items = slices.Grow(items, len(refs))
		for di := range o.Dests {
			items = addItem(items, &from, output, fn, &o.Dests[di], refs[di], BroadcastIdx, &values[0])
		}
	}
	return items, nil
}

// addItem appends the item addressing *v from instance *from of function fn,
// its output named output (the caller's string), to instance idx of d
// (resolved as ref) or to the user. It fills the item in place, field by
// field, rather than copying a built one in.
func addItem(items []Item, from *InstanceKey, output string, fn int, d *workflow.Dest, ref workflow.DestRef, idx int, v *Value) []Item {
	n := len(items)
	items = slices.Grow(items, 1)[:n+1]
	it := &items[n]
	it.From.Fn, it.From.Idx, it.Output, it.Input = from.Fn, from.Idx, output, d.Input
	it.Value.Payload, it.Value.Size = v.Payload, v.Size
	it.To.Fn, it.To.Idx, it.toFn, it.toPos, it.fromFn = d.Function, idx, int32(ref.Fn+1), int16(ref.Pos), int16(fn+1)
	if d.Function == workflow.UserSource {
		it.To.Idx = 0
	}
	return items
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
// An item for an input its destination does not declare is dropped.
func (t *Tracker) DeliverReady(dst []Ready, it *Item) ([]Ready, error) {
	if it.fromFn == 0 || (it.toFn == 0) != (it.To.Fn == workflow.UserSource) {
		return dst, fmt.Errorf("dataflow: item to %s was not routed by the plan", it.To)
	}
	from := int(it.fromFn) - 1
	if it.toFn == 0 {
		n := len(t.user)
		if n < cap(t.user) {
			t.user = t.user[:n+1]
		} else {
			t.user = append(t.user, userItem{})
		}
		u := &t.user[n]
		u.fn, u.idx, u.out, u.val.Payload, u.val.Size = int32(from), int32(it.From.Idx), it.Output, it.Value.Payload, it.Value.Size
		return dst, nil
	}
	if it.toPos < 0 {
		return dst, nil
	}
	if idx := it.To.Idx; idx != BroadcastIdx && (idx < 0 || idx >= int(t.fns[it.toFn-1].n)) {
		return dst, fmt.Errorf("dataflow: item to invalid instance %s", it.To)
	}
	key := uint64(t.plan.Fns[from].Rank)<<32 | uint64(uint32(it.From.Idx))
	return t.deliver(dst, int(it.toFn)-1, int(it.toPos), it.To.Idx, key, it.Value), nil
}

// deliver files v, keyed for branch order, under input pos of fn's instance
// idx or every instance (BroadcastIdx); it appends the readied ones to dst.
func (t *Tracker) deliver(dst []Ready, fn, pos, idx int, key uint64, v Value) []Ready {
	fp, f := &t.plan.Fns[fn], &t.fns[fn]
	slot := &t.cells[fp.Slot0+pos]
	need, list := t.need(fn, pos)
	if !list {
		key = 0 // a NORMAL input keeps arrival order
	}
	if idx != BroadcastIdx {
		own := t.instCell(f, idx, pos)
		t.push(own, v, key, need)
		return t.satisfy(dst, fn, idx, pos, slot.n+own.n, need)
	}
	t.push(slot, v, key, need)
	if !fp.Fanned {
		return t.satisfy(dst, fn, 0, pos, slot.n, need) // the one instance's cell is the slot
	}
	for i := 0; i < int(f.n); i++ {
		dst = t.satisfy(dst, fn, i, pos, slot.n+t.instCell(f, i, pos).n, need)
	}
	return dst
}

// Fetcher numbers the instance that fetches a datum landed for instance idx
// of function fn (idx may be BroadcastIdx), densely by the request's layout:
// a single-instance function's one instance is fn, whichever it is addressed
// by; instance i of a FOREACH-fanned function is its missing counter's index;
// a fanned function's shared inputs (BroadcastIdx) get fn, which none of its
// instances fetches. A FOREACH fixes the degree before its items land, so a
// number never moves within a request.
func (t *Tracker) Fetcher(fn, idx int) int {
	if idx == BroadcastIdx {
		return fn
	}
	return int(t.fns[fn].miss) + idx
}

// instCell is instance i's cell for input pos of f.
func (t *Tracker) instCell(f *fnRun, i, pos int) *cell {
	return &t.cells[int(f.cell)+i*int(f.ins)+pos]
}

// need is how many values satisfy input pos of fn, and whether it is a LIST:
// one, or the sum of its feeders' degrees (unknown until all are fixed).
func (t *Tracker) need(fn, pos int) (int32, bool) {
	if t.wf.Functions[fn].Inputs[pos].Kind != workflow.List {
		return 1, false
	}
	var n int32
	for _, p := range t.plan.Fns[fn].Feeders[pos] {
		if t.fns[p].n == 0 {
			return unknown, true
		}
		n += t.fns[p].n
	}
	return n, true
}

// satisfy marks input pos of fn's instance i satisfied once it holds need
// values (got), and fires the instance when that was its last missing input.
func (t *Tracker) satisfy(dst []Ready, fn, i, pos int, got, need int32) []Ready {
	f := &t.fns[fn]
	c := t.instCell(f, i, pos)
	if c.sat || got < need {
		return dst
	}
	c.sat = true
	m := &t.miss[int(f.miss)+i]
	if *m--; *m != 0 {
		return dst
	}
	return append(dst, Ready{Key: InstanceKey{Fn: t.wf.Functions[fn].Name, Idx: i}, Fn: fn})
}

// push files v in c, a LIST's in branch order (key; ties by arrival). A cell
// out of room moves to the arena's end, sized for the need when it is known.
func (t *Tracker) push(c *cell, v Value, key uint64, need int32) {
	if c.n == c.cap {
		room := max(2*c.cap, 1)
		if need != unknown && need > room {
			room = need
		}
		off := len(t.vals)
		t.vals = slices.Grow(t.vals, int(room))[:off+int(room)]
		t.keys = slices.Grow(t.keys, int(room))[:off+int(room)]
		if c.n > 0 {
			copy(t.vals[off:], t.vals[c.off:c.off+c.n])
			copy(t.keys[off:], t.keys[c.off:c.off+c.n])
		}
		c.off, c.cap = int32(off), room
	}
	i := c.off + c.n
	for ; i > c.off && t.keys[i-1] > key; i-- {
		t.vals[i], t.keys[i] = t.vals[i-1], t.keys[i-1]
	}
	t.vals[i], t.keys[i] = v, key
	c.n++
}

// view is c's values, capped so an append cannot write into the arena.
func (t *Tracker) view(c *cell) []Value {
	return t.vals[c.off : c.off+c.n : c.off+c.n]
}

// InputVals is one declared input's collected values, in declaration order
// within the InputsAppend result.
type InputVals struct {
	Name   string
	Values []Value
}

// InputsAppend appends one InputVals per declared input of the instance to
// dst and returns it. List (fan-in) inputs are ordered deterministically by
// the producing instance (function name, then instance index), so
// merge-style consumers see branch outputs in branch order regardless of
// network arrival order. The values are views into the request's state,
// valid until Reset; the caller must not modify them.
func (t *Tracker) InputsAppend(dst []InputVals, key InstanceKey) []InputVals {
	f, ok := t.wf.Function(key.Fn)
	if !ok {
		return dst
	}
	out, _ := t.InputsAppendBacking(dst, nil, f.Index(), key)
	return out
}

// InputsAppendBacking is InputsAppend with a caller-supplied backing for
// values that are not a view: an input both per instance and for all (a
// fanned function's LIST fed by FOREACH and MERGE edges alike). fn is key.Fn's
// Function.Index. The caller keeps the grown dst and backing together and
// may reuse them once it is done with the returned values.
func (t *Tracker) InputsAppendBacking(dst []InputVals, backing []Value, fn int, key InstanceKey) ([]InputVals, []Value) {
	f, fp, inputs := &t.fns[fn], &t.plan.Fns[fn], t.wf.Functions[fn].Inputs
	n := len(dst)
	dst = slices.Grow(dst, len(inputs))[:n+len(inputs)]
	for pos := range inputs {
		in, slot := &inputs[pos], &t.cells[fp.Slot0+pos]
		vals := t.view(slot)
		if fp.Fanned && key.Idx >= 0 && key.Idx < int(f.n) {
			own := t.instCell(f, key.Idx, pos)
			switch {
			case slot.n == 0:
				vals = t.view(own)
			case own.n > 0: // own values first, a LIST's merged by key
				start, i, j := len(backing), own.off, slot.off
				for i < own.off+own.n || j < slot.off+slot.n {
					if j == slot.off+slot.n || (i < own.off+own.n && (in.Kind != workflow.List || t.keys[i] <= t.keys[j])) {
						backing, i = append(backing, t.vals[i]), i+1
					} else {
						backing, j = append(backing, t.vals[j]), j+1
					}
				}
				vals = backing[start:len(backing):len(backing)]
			}
		}
		dst[n+pos].Name, dst[n+pos].Values = in.Name, vals
	}
	return dst, backing
}

// UserItems returns the items delivered to the user so far, rebuilt into a
// buffer the next call reuses. A recycled tracker rebuilds the same
// producers request after request: it stores only the fields that differ.
func (t *Tracker) UserItems() []Item {
	t.users = t.users[:0]
	for i := range t.user {
		u, f := &t.user[i], t.wf.Functions[t.user[i].fn]
		if i < cap(t.users) {
			t.users = t.users[:i+1]
		} else {
			t.users = append(t.users, Item{})
		}
		it := &t.users[i]
		if it.From.Fn != f.Name || it.Output != u.out || it.To != UserKey || it.Input != "" {
			it.From.Fn, it.Output, it.To, it.Input = f.Name, u.out, UserKey, ""
		}
		it.From.Idx, it.Value.Payload, it.Value.Size = int(u.idx), u.val.Payload, u.val.Size
	}
	return t.users
}

// ExpectedUserItems returns the total number of items the user should
// eventually receive and whether that number is final. The expectation is
// undecidable (known == false) while a SWITCH on the executed path has not
// fired or while a fan-out degree on the executed path is still unknown.
func (t *Tracker) ExpectedUserItems() (int, bool) {
	if t.expectFinal {
		return t.expectTotal, true
	}
	// The functions that will run: every edge but the SWITCH cases not taken.
	// A reachable SWITCH that has not fired leaves the expectation open.
	fns := t.wf.Functions
	reachBuf, stackBuf := [16]bool{}, [16]int{}
	reachable, stack := seeded(nil, reachBuf[:], len(fns)), stackBuf[:0]
	for _, e := range t.plan.Entries {
		stack = append(stack, e.Fn.Index())
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reachable[fn] {
			continue
		}
		reachable[fn] = true
		fp := &t.plan.Fns[fn]
		for oi, o := range fns[fn].Outputs {
			refs := fp.Dests[oi]
			if c := t.outs[fp.Out0+oi]; o.Kind == workflow.Switch && c == 0 {
				return 0, false
			} else if o.Kind == workflow.Switch {
				refs = refs[c-1 : c]
			}
			for _, ref := range refs {
				if ref.Fn >= 0 {
					stack = append(stack, ref.Fn)
				}
			}
		}
	}
	total := 0
	for fn, f := range fns {
		if !reachable[fn] {
			continue
		}
		n := int(t.fns[fn].n)
		if n == 0 {
			return 0, false
		}
		for oi, o := range f.Outputs {
			dests, rec := o.Dests, int(t.outs[t.plan.Fns[fn].Out0+oi])
			if o.Kind == workflow.Switch {
				dests = dests[rec-1 : rec]
			}
			for _, d := range dests {
				switch {
				case d.Function != workflow.UserSource:
				case o.Kind != workflow.Foreach:
					total += n
				case rec == 0: // the element count comes with the emission
					return 0, false
				default:
					total += n * rec
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
	return known && len(t.user) >= want
}
