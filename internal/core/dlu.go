//repolint:hotpath ship/land/put run per request item; see the hotpath analyzer
package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/transport"
	"repro/internal/wmm"
	"repro/internal/workflow"
)

// Context is the FLU's view of its invocation and its interface to the DLU
// daemon (DataFlower.DLU.Put in the paper's programming model, Fig. 5(a)).
type Context struct {
	// Instance is the function instance this run executes; ReqID names its
	// request.
	Instance dataflow.InstanceKey

	// inputs holds the collected values per declared input in declaration
	// order; functions declare a handful of inputs, so a linear scan beats
	// building a map per instance run. valBuf is the shared backing of the
	// input values; both are recycled with the Context through ctxPool.
	inputs []dataflow.InputVals
	valBuf []dataflow.Value
	sys    *System
	req    *request
	gen    uint32 // req's generation when this run's job was made
	ctr    *cluster.Container
	fst    *fnState
	// blocked is the time this run has spent in Put's Eq. 1 block. It is the
	// engine's throttle, not the handler's compute, so runInstance keeps it
	// out of T_FLU: a block that fed its own operand would settle at half. A
	// limiter park taken while shipping inline is booked here as well.
	blocked time.Duration
	// at is the reading this run started at: an inline ship prices its wire
	// charge there when that cannot make it park (pipe.Limiter.TakeNAt).
	at time.Duration

	// items is the buffer a Put routes into: an inline ship ships from it, a
	// task queued to the DLU daemon copies it into an itemsBox.
	items []dataflow.Item
	// ship is the scratch of an inline ship (put), the one the DLU daemon
	// keeps for its tasks, here so the backings ride the pooled Context.
	ship dluShip
	// cont is set for the span of an inline ship whose producer passed the
	// continuationMaxTFLU gate; next is the consumer that ship parked here
	// instead of waking through the executor pool. runInstance returns it.
	cont bool
	next instanceJob
}

// continuationMaxTFLU gates run to completion. A consumer made ready by an
// inline ship runs on its producer's goroutine, after the producer's handler
// returns, only while the producer's measured T_FLU is below this; the gate
// is therefore also the most a continuation can delay a consumer. A producer
// that keeps computing after its Put, or has no sample yet, wakes its
// consumer through the pool — the paper's early triggering (§5.1).
//
// The value is set by what T_FLU, a wall-clock mean, reads for a handler that
// computes nothing under load on two vCPUs: 1.3–29 µs of scheduling stalls,
// by client count and neighbours (README hot-path section). At 10 µs the
// engine was bistable, each path keeping T_FLU on its own side of the gate;
// 50 µs clears every reading and is two orders below a millisecond of work.
const continuationMaxTFLU = 50 * time.Microsecond

// ctxPool recycles Context records and their buffers, one per chain
// (runChain): every instance the chain runs reuses it. The pooling contract
// (see the README hot-path section): a handler must not retain the Context,
// nor the slices returned by Input or InputList, past its return — the
// payload bytes themselves are the user's and may be kept.
var ctxPool = sync.Pool{New: func() any { return new(Context) }}

// releaseCtx ends a chain: it zeroes the references its runs pinned —
// payloads in every buffer's whole backing, the request, the container — and
// returns the Context to the pool with its buffers retained. Field by field:
// assigning a whole Context would run the write barrier over the ship
// backings it keeps. The inputs are views into the request's tracker, which
// drops their payloads when the request is recycled; of a routed item only
// the payload is not the workflow's own.
func releaseCtx(ctx *Context) {
	clear(ctx.valBuf[:cap(ctx.valBuf)])
	items := ctx.items[:cap(ctx.items)]
	for i := range items {
		items[i].Value.Payload = nil
	}
	ctx.inputs, ctx.valBuf, ctx.items = ctx.inputs[:0], ctx.valBuf[:0], ctx.items[:0]
	ctx.Instance = dataflow.InstanceKey{}
	ctx.sys, ctx.req, ctx.ctr, ctx.fst = nil, nil, nil, nil
	ctx.gen, ctx.blocked, ctx.cont, ctx.next = 0, 0, false, instanceJob{}
	// shipTask leaves the ship scratch's flu nil; only its backings survive.
	ctxPool.Put(ctx)
}

// inputVals returns the values of the named input and whether it exists.
// An input is matched by the string its function's handler first named it
// with (fnState.said), so a handler that names it the same way again
// matches at the string's data pointer and compares no bytes.
func (c *Context) inputVals(name string) ([]dataflow.Value, bool) {
	for i := range c.inputs {
		said := &c.fst.said[i]
		if p := said.Load(); p != nil && *p == name {
			return c.inputs[i].Values, true
		} else if p == nil && c.inputs[i].Name == name {
			s := name
			said.CompareAndSwap(nil, &s)
			return c.inputs[i].Values, true
		}
	}
	return nil, false
}

// Input returns the single value of a NORMAL input.
func (c *Context) Input(name string) ([]byte, error) {
	vals, _ := c.inputVals(name)
	if len(vals) == 0 {
		return nil, fmt.Errorf("core: input %q has no data", name)
	}
	return vals[0].Payload, nil
}

// InputList returns all values of a LIST (fan-in) input, ordered by the
// producing instance (branch order), independent of network arrival order.
func (c *Context) InputList(name string) ([][]byte, error) {
	vals, ok := c.inputVals(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown input %q", name)
	}
	out := make([][]byte, 0, len(vals))
	for _, v := range vals {
		out = append(out, v.Payload)
	}
	return out, nil
}

// Put hands one payload for a NORMAL or MERGE output to the DLU. It may be
// called in the middle of the function body; the transfer proceeds
// asynchronously while the FLU keeps computing (§5.1). When backpressure is
// detected (Eq. 1), Put blocks the calling FLU for the pressure duration
// (the Callstack blocking signal) and the engine pre-warms a container; the
// payload is already with the DLU by then, so it ships during the block.
func (c *Context) Put(output string, payload []byte) error {
	// Route copies values out without retaining the slice, so the
	// single-value wrapper stays on this stack.
	one := [1]dataflow.Value{{Payload: payload, Size: int64(len(payload))}}
	return c.put(output, one[:], 0)
}

// PutForeach hands a FOREACH output to the DLU: element i flows to instance
// i of the destination function.
func (c *Context) PutForeach(output string, payloads [][]byte) error {
	vals := make([]dataflow.Value, len(payloads))
	for i, p := range payloads {
		vals[i] = dataflow.Value{Payload: p, Size: int64(len(p))}
	}
	return c.put(output, vals, 0)
}

// PutSwitch hands a SWITCH output to the DLU, selecting destination case.
//
//repolint:testseam the handler API for the SWITCH edges the DSL accepts; no shipped workflow has one yet
func (c *Context) PutSwitch(output string, payload []byte, switchCase int) error {
	one := [1]dataflow.Value{{Payload: payload, Size: int64(len(payload))}}
	return c.put(output, one[:], switchCase)
}

// itemsBox is a recyclable copy of one queued Put's routed items. Boxes
// travel to the DLU daemon through cluster.DLUTask.Buf and return to the
// pool once the items are shipped; every consumer of a routed item copies
// it by value (the arrival log, tracker bookkeeping, sink puts), so a backing
// — box or Context buffer — is free the moment its task has shipped.
type itemsBox struct{ items []dataflow.Item }

var itemsPool = sync.Pool{New: func() any { return new(itemsBox) }}

// recycleItems returns a task's items backing to the pool, dropping the
// payload references it pins first.
func recycleItems(task cluster.DLUTask) {
	box, ok := task.Buf.(*itemsBox)
	if !ok {
		return
	}
	clear(box.items)
	box.items = box.items[:0]
	itemsPool.Put(box)
}

func (c *Context) put(output string, values []dataflow.Value, switchCase int) error {
	r, s := c.req, c.sys
	r.live(c.gen)
	r.mu.Lock()
	items, err := r.tracker.RouteIndexed(c.items[:0], c.fst.idx, c.Instance, output, values, switchCase)
	r.mu.Unlock()
	c.items = items
	if err != nil {
		return err
	}
	var totalSize int64
	for i := range items {
		totalSize += items[i].Value.Size
	}
	// Pressure-aware scaling (Eq. 1): Pressure = α·Size/Bw − T_FLU. Computed
	// before the items (and their backing) are handed on.
	tflu, sampled := c.fst.tfluPublished()
	var pressure time.Duration
	if !s.cfg.DisablePressure && totalSize > 0 {
		if bw := c.ctr.Limiter.Rate(); bw > 0 {
			pressure = cluster.Pressure(s.cfg.Alpha, float64(totalSize), bw, tflu)
		}
	}
	task := cluster.DLUTask{Ref: r, Gen: c.gen, Items: items}
	if pressure <= 0 && c.shipsInline(items) {
		// The DLU is asynchronous so that transmission never blocks compute
		// (§5.1); a sub-microsecond in-process land costs less than the
		// hand-off to the daemon, so this goroutine ships.
		obsInlineShips.Inc(r.stripe)
		c.cont = sampled && tflu < continuationMaxTFLU
		b := &c.ship
		b.flu = c
		s.shipTask(c.ctr, &task, b)
		b.flu, c.cont = nil, false
		return nil
	}
	// Hand the items to the container's DLU daemon (FIFO) first, so the data
	// ships during the pressure block below, not after it. The queued task
	// owns a copy of the items, since the next Put reuses the buffer, and
	// holds a request reference until it has shipped.
	box := itemsPool.Get().(*itemsBox)
	box.items = append(box.items[:0], items...)
	task.Items, task.Buf = box.items, box
	r.refs.Add(1)
	if !s.dluEnqueue(c.ctr, task) {
		return nil // shutting down: nothing shipped, nothing to throttle for
	}
	if pressure > 0 {
		s.prewarm(c.fst, c.ctr)
		// Callstack blocking: throttle this FLU to the DLU's consuming rate,
		// timed on the engine clock runInstance times the handler on.
		blockStart := s.clk.Now()
		c.ctr.Node.Clock().Sleep(pressure)
		c.blocked += s.clk.Now() - blockStart
	}
	return nil
}

// shipsInline reports whether a Put under no Eq. 1 pressure may ship on the
// FLU's own goroutine instead of through the DLU daemon: nothing about the
// shipment can wait on a wire (every payload fits the socket fast path, no
// failure injector, no remote sink — an RPC never runs on an FLU's
// goroutine, nor does a fault-tolerant re-land that might pick a remote
// survivor), and the daemon holds no earlier task of this container for the
// shipment to overtake.
func (c *Context) shipsInline(items []dataflow.Item) bool {
	s := c.sys
	if s.streams(items) {
		return false
	}
	if s.hasRemote {
		for i := range items {
			if items[i].To.Fn == workflow.UserSource {
				continue
			}
			if s.ft {
				return false
			}
			if node, _ := s.routeFor(c.req, s.fnList[items[i].ToFn()], c.ctr.Node); node.Remote() {
				return false
			}
		}
	}
	return c.ctr.DLUQuiet()
}

// prewarm starts an extra idle container for st if the producer's own pool
// has none idle, in the background (the reaction to a pressure
// notification), on the node whose DLU backlog raised it — as the
// simulation plane's prewarm-on-own-node does.
func (s *System) prewarm(st *fnState, producer *cluster.Container) {
	if !producer.PoolExhausted(s.cfg.MaxContainersPerFn) {
		return
	}
	node := producer.Node
	s.gate.add(0)
	go func() {
		defer s.gate.exit(0)
		c := node.StartContainer(st.name, st.spec)
		node.Release(c)
	}()
}

// dluEnqueue hands a task to the container's DLU daemon and reports whether
// it was accepted. The container owns the queue and its close protocol; the
// system supplies the daemon goroutine, under a gate count, for a fresh
// queue. A refusal means shutdown: the task is dropped and its request
// reference released.
func (s *System) dluEnqueue(ctr *cluster.Container, task cluster.DLUTask) bool {
	queue, ok := ctr.DLUEnqueue(task)
	if !ok {
		recycleItems(task)
		task.Ref.(*request).release()
		return false
	}
	if queue != nil {
		s.gate.add(0)
		go func() {
			defer s.gate.exit(0)
			s.dluDaemon(ctr, queue)
		}()
	}
	return true
}

// dluGroup is one shipment edge of a task: a run of its consecutive items
// bound for one node (nil for user-destined items, which never touch a
// sink). items is a view of the task's own backing; nothing is copied.
type dluGroup struct {
	node  *cluster.Node
	items []dataflow.Item
}

// dluShip is the reusable scratch of one task's shipment; its backings
// survive across tasks so steady-state shipping allocates nothing.
type dluShip struct {
	groups []dluGroup
	reqs   []wmm.PutReq
	// flu is the producer's Context while it ships its task on its own
	// goroutine (Context.put), nil on the daemon's.
	flu *Context
}

// dropReqs empties the put scratch, dropping its payload references.
func (b *dluShip) dropReqs() {
	clear(b.reqs)
	b.reqs = b.reqs[:0]
}

// dluDaemon is the container's Data Logic Unit (§5.1): it ships each queued
// task as it arrives, then reports it shipped and drops its request
// reference, so no task waits on the shipment of the tasks behind it.
func (s *System) dluDaemon(ctr *cluster.Container, queue <-chan cluster.DLUTask) {
	var b dluShip
	for task := range queue {
		s.shipTask(ctr, &task, &b)
		recycleItems(task)
		task.Ref.(*request).release()
		ctr.DLUShipped()
	}
}

// shipTask routes every item of one task onto its shipment edge, then ships
// edge by edge with batched pipe/sink/accounting interactions. It is the
// only ship implementation: the DLU daemon calls it for each queued task and
// Context.put for its inline one.
func (s *System) shipTask(ctr *cluster.Container, task *cluster.DLUTask, b *dluShip) {
	r := task.Ref.(*request)
	r.live(task.Gen)
	items := task.Items
	obsBatchItems.Observe(r.stripe, int64(len(items)))
	// Split the task into runs of consecutive items sharing a node; one
	// Put's items almost always form a single run. The retired groups pin
	// only nodes and the task's backing, whose payloads its owner clears
	// (recycleItems, releaseCtx).
	b.groups = b.groups[:0]
	start := 0
	var runNode *cluster.Node
	for i := range items {
		// Replica selection, locality-first: when the destination function
		// has a replica on the producer's own node the edge degenerates to
		// the local pipe (no network); otherwise the request pins the
		// least-loaded replica. The pin is write-once per request+function,
		// so every item and every instance of the function agree on the node.
		var node *cluster.Node
		if items[i].To.Fn != workflow.UserSource {
			node, _ = s.routeFor(r, s.fnList[items[i].ToFn()], ctr.Node)
		}
		if i > 0 && node != runNode {
			b.groups = append(b.groups, dluGroup{runNode, items[start:i]})
			start = i
		}
		runNode = node
	}
	if len(items) > 0 {
		b.groups = append(b.groups, dluGroup{runNode, items[start:]})
	}
	for i := range b.groups {
		s.shipGroup(ctr, r, &b.groups[i], b)
	}
}

// shipGroup moves one shipment edge's items: straight to the user, through
// the local pipe when src and dst share a node, or across nodes. Remote edges
// and edges whose every payload fits the socket fast path ship whole, one
// frame per edge (a payload over the frame cap fails the request with
// transport.ErrFrameTooLarge). Otherwise each item goes alone — streamed when
// streaming-sized or under a failure injector, which addresses streams — and
// lands once its own bytes are across, never waiting for a sibling's stream.
func (s *System) shipGroup(ctr *cluster.Container, r *request, g *dluGroup, b *dluShip) {
	if r.span != nil {
		for i := range g.items {
			s.event(r, obs.DataSent, g.items[i].From.Fn, g.items[i].From.Idx)
		}
	}
	switch {
	case g.node == nil:
		s.deliverBatch(r, g.items, nil, nil, b.flu)
	case g.node == ctr.Node:
		// Local pipe connector: pump straight into the local data sink.
		s.landBatch(r, g.items, g.node, b, transport.Pacing{}, 0)
	case g.node.Remote() || !s.streams(g.items):
		s.shipSocket(ctr, r, g.items, g.node, b)
	default:
		for i := range g.items {
			one := g.items[i : i+1]
			if !s.streams(one) {
				s.shipSocket(ctr, r, one, g.node, b)
			} else if s.ship(ctr, r, &one[0], g.node) {
				s.landBatch(r, one, g.node, b, transport.Pacing{}, 0)
			}
		}
	}
}

// streams reports whether any of items must take the streaming pipe to a
// local node: a streaming-sized payload, or any payload at all while a
// failure injector is installed.
func (s *System) streams(items []dataflow.Item) bool {
	if s.injector.Load() != nil {
		return true
	}
	for i := range items {
		if items[i].Value.Size > pipe.SmallDataThreshold {
			return true
		}
	}
	return false
}

// shipSocket ships items over the socket path: one limiter charge for the
// whole edge inside the land (the transport is the wire).
func (s *System) shipSocket(ctr *cluster.Container, r *request, items []dataflow.Item, node *cluster.Node, b *dluShip) {
	var total int64
	for i := range items {
		total += items[i].Value.Size
	}
	pace := transport.Pacing{
		Src:     ctr.Limiter,
		Items:   len(items),
		Bytes:   total,
		TraceID: r.span.ID(),
		At:      clock.NoReading,
	}
	if b.flu != nil {
		pace.Parked = &b.flu.blocked
		if s.paceAt {
			pace.At = b.flu.at
		}
	}
	s.landBatch(r, items, node, b, pace, 0)
}

// ship pumps one payload through the streaming pipe, chunked through the
// source container's TC class. It moves the
// bytes only — the caller lands the item — and reports false after failing
// the request on an unrecoverable transfer.
func (s *System) ship(ctr *cluster.Container, r *request, it *dataflow.Item, dstNode *cluster.Node) bool {
	spec := transport.StreamSpec{
		Src:     ctr.Limiter,
		Retries: retryLimit,
	}
	if s.injector.Load() != nil {
		// Only an injected failure resumes a stream from its checkpoints.
		id := streamIDOf(r.inv.ReqID(), *it)
		spec.ID, spec.Log = id, s.checkLog
		spec.FailAfter = func() int64 { return s.failAfter(id) }
	}
	err := dstNode.Inproc().Stream(spec, it.Value.Payload)
	if err != nil {
		r.fail(fmt.Errorf("core: transfer %s failed: %w", streamIDOf(r.inv.ReqID(), *it), err))
	}
	return err == nil
}

// landBatch lands one edge's items on node, then advances the tracker under
// one lock hold. On a remote node the items are cached in its sink with a
// single multi-put; in process the request's tracker is the Wait-Match
// Memory — the consumer reads its inputs there — so the edge pays its wire
// charge and puts nothing: no key, arrival record or residue.
// pace carries the edge's source-side wire charge (zero for local pipes and
// re-lands); attempt counts the re-lands this shipment already took.
func (s *System) landBatch(r *request, items []dataflow.Item, node *cluster.Node, b *dluShip, pace transport.Pacing, attempt int) {
	if s.ft && attempt < retryLimit && node.Health() == cluster.Down {
		// The destination died while the shipment was in flight.
		s.reland(r, items, b, attempt+1)
		return
	}
	b.reqs = b.reqs[:0]
	if node.Remote() {
		id := r.inv.ReqID()
		for i := range items {
			b.reqs = append(b.reqs, wmm.PutReq{
				Key:       cluster.SinkKey(id, items[i]),
				Val:       items[i].Value,
				Consumers: 1,
			})
		}
	}
	if err := node.SinkShip(pace, b.reqs); err != nil {
		b.dropReqs()
		if s.noteUnreachable(node, err) && attempt < retryLimit {
			// The destination died under the shipment.
			s.reland(r, items, b, attempt+1)
			return
		}
		r.fail(fmt.Errorf("core: ship of %d items to %s failed: %w", len(items), node.Name, err))
		return
	}
	if node.Remote() {
		if s.ft && attempt < retryLimit && node.Health() == cluster.Down {
			// The destination was declared dead between the check above and
			// the put. Its sink is wiped after it is marked Down, so the put
			// may have landed behind the wipe, where no repair or teardown
			// would ever look again: drop whatever this request left there
			// and land elsewhere.
			b.dropReqs()
			node.SinkRelease(r.inv.ReqID()) //nolint:errcheck // best effort: an unreachable sink holds nothing to release
			s.reland(r, items, b, attempt+1)
			return
		}
		r.sinkResidue.Add(int64(len(b.reqs)))
		if r.torn.Load() {
			// The request completed while this shipment was in flight (e.g.
			// the user-facing item of the same DLU task finished the
			// workflow), so its teardown ReleaseRequest has already run (or
			// was skipped for zero residue) — or runs after our Put, in which
			// case this extra release is a no-op. Either way the just-cached
			// entries must not outlive the request.
			node.SinkRelease(r.inv.ReqID()) //nolint:errcheck // best effort: an unreachable sink holds nothing to release
		}
	}
	if r.span != nil {
		for i := range items {
			s.event(r, obs.DataArrived, items[i].To.Fn, items[i].To.Idx)
		}
	}
	s.deliverBatch(r, items, b.reqs, node, b.flu)
	b.dropReqs()
}

// reland re-ships a shipment whose destination died in flight: repair the
// request's pins and land on the survivors instead. Repair is per item —
// each pin rewrite may pick a different survivor — and unpaced: the wire
// charge died with the connection.
func (s *System) reland(r *request, items []dataflow.Item, b *dluShip, attempt int) {
	for i := range items {
		s.landBatch(r, items[i:i+1], s.relandTarget(r, items[i].To.Fn), b, transport.Pacing{}, attempt)
	}
}

// deliverBatch advances the tracker with every item of one edge and reacts
// to readiness and completion, under one r.mu hold. reqs are the sink keys
// the items were cached under on node, index-aligned (empty for user-destined
// and in-process edges); flu is the producer's Context when it is the one
// shipping (scheduleReady may park a consumer in it).
func (s *System) deliverBatch(r *request, items []dataflow.Item, reqs []wmm.PutReq, node *cluster.Node, flu *Context) {
	var readyBuf [4]dataflow.Ready // on the stack: a delivery readies a handful of instances
	r.mu.Lock()
	for i := range items {
		it := &items[i]
		if len(reqs) > 0 {
			r.arrivals.Add(r.tracker.Fetcher(it.ToFn(), it.To.Idx), reqs[i].Key, it.Value, node)
		}
		newly, err := r.tracker.DeliverReady(readyBuf[:0], it)
		if err != nil {
			r.mu.Unlock()
			r.fail(err)
			return
		}
		s.scheduleReady(r, newly, flu)
	}
	if r.tracker.Complete() {
		r.finishLocked()
	}
	r.mu.Unlock()
}

// streamIDOf formats the cross-node stream identifier
// (reqID/from.output->to) without the fmt machinery: the checkpoint log and
// the failure injector address streams by it, and a failed one is named by it.
func streamIDOf(reqID string, it dataflow.Item) string {
	var b strings.Builder
	b.Grow(len(reqID) + len(it.From.Fn) + len(it.Output) + len(it.To.Fn) + 16)
	b.WriteString(reqID)
	b.WriteByte('/')
	it.From.AppendTo(&b)
	b.WriteByte('.')
	b.WriteString(it.Output)
	b.WriteString("->")
	it.To.AppendTo(&b)
	return b.String()
}

// failAfter consults the system's failure injector for a stream.
func (s *System) failAfter(streamID string) int64 {
	if fn := s.injector.Load(); fn != nil {
		return (*fn)(streamID)
	}
	return -1
}

// SetTransferFailureInjector installs fn, which returns for each (re)attempted
// transfer the byte offset at which to inject a failure, or -1 for none.
func (s *System) SetTransferFailureInjector(fn func(streamID string) int64) {
	s.injector.Store(&fn)
}

// Shutdown closes the gate, so every later Invoke is refused, closes the DLU
// queues and waits until nothing the engine started is in flight. Requests
// still in flight are abandoned safely (their late Puts are refused, never
// panicked).
func (s *System) Shutdown() {
	if s.gate.closed.Swap(true) {
		return
	}
	// Close every container's DLU queue. Nodes mark themselves shut first,
	// so a cold start racing this loop produces a container that is born
	// closed — no daemon can appear after the sweep and keep the gate open.
	for _, name := range s.cfg.Cluster.Nodes() {
		if n, ok := s.cfg.Cluster.Node(name); ok {
			n.CloseDLUs()
		}
	}
	s.gate.drain()
	// Every submitter holds a gate count, so after the drain no send can race
	// this close; the executor workers drain and exit.
	close(s.execJobs)
}
