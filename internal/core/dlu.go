//repolint:hotpath ship/land/put run per request item; see tracegate
package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/pipe"
	"repro/internal/trace"
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
	at time.Time

	// ship is the scratch batch of an inline ship (put): the DLU daemon's own
	// drain scratch, kept here so the backings ride the pooled Context.
	ship dluBatch
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

// ctxPool recycles Context records and their input buffers across instance
// executions. The pooling contract (see the README hot-path section): a
// handler must not retain the Context, nor the slices returned by Input or
// InputList, past its return — the payload bytes themselves are the user's
// and may be kept.
var ctxPool = sync.Pool{New: func() any { return new(Context) }}

// releaseCtx zeroes the references a finished execution pinned — payloads,
// the request, the container — and returns the Context to the pool with its
// buffers retained. Field by field: assigning a whole Context would run the
// write barrier over the ship backings it keeps.
func releaseCtx(ctx *Context) {
	clear(ctx.inputs)
	clear(ctx.valBuf)
	ctx.inputs, ctx.valBuf = ctx.inputs[:0], ctx.valBuf[:0]
	ctx.Instance = dataflow.InstanceKey{}
	ctx.sys, ctx.req, ctx.ctr, ctx.fst = nil, nil, nil, nil
	ctx.gen, ctx.blocked, ctx.at, ctx.cont, ctx.next = 0, 0, time.Time{}, false, instanceJob{}
	// shipBatch leaves the scratch batch empty (flu nil); only its backings
	// survive.
	ctxPool.Put(ctx)
}

// inputVals returns the values of the named input and whether it exists.
func (c *Context) inputVals(name string) ([]dataflow.Value, bool) {
	for i := range c.inputs {
		if c.inputs[i].Name == name {
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

// itemsBox is a recyclable backing array for one Put's routed items. Boxes
// travel to the DLU daemon through cluster.DLUTask.Buf and return to the
// pool once the items are shipped; every consumer of a routed item copies
// it by value (recordArrived, tracker bookkeeping, sink puts), so the
// backing is free the moment the daemon is done with the task.
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
	box := itemsPool.Get().(*itemsBox)
	r.mu.Lock()
	items, err := r.tracker.RouteIndexed(box.items[:0], c.fst.idx, c.Instance, output, values, switchCase)
	r.mu.Unlock()
	box.items = items
	if err != nil {
		recycleItems(cluster.DLUTask{Buf: box})
		return err
	}
	var totalSize int64
	for _, it := range items {
		totalSize += it.Value.Size
	}
	// Pressure-aware scaling (Eq. 1): Pressure = α·Size/Bw − T_FLU. Computed
	// before the items (and their backing) are handed on.
	tflu, sampled := c.fst.tfluPublished()
	var pressure time.Duration
	if !s.cfg.DisablePressure && totalSize > 0 {
		bw := c.ctr.Limiter.Rate()
		if s.hasRemote {
			// Real socket backpressure: a remote destination's measured
			// throughput replaces the TC rate when it is tighter.
			if obs := s.remoteBpsFloor(r, items); obs > 0 && (bw <= 0 || obs < bw) {
				bw = obs
			}
		}
		if bw > 0 {
			pressure = cluster.Pressure(s.cfg.Alpha, float64(totalSize), bw, tflu)
		}
	}
	task := cluster.DLUTask{Ref: r, Gen: c.gen, Items: items, Buf: box}
	if pressure <= 0 && c.shipsInline(items) {
		// The DLU is asynchronous so that transmission never blocks compute
		// (§5.1); a sub-microsecond in-process land costs less than the
		// hand-off to the daemon, so this goroutine ships. The container
		// stays Busy throughout: no pending bytes for the keep-alive rule.
		obsInlineShips.Inc(r.stripe)
		c.cont = sampled && tflu < continuationMaxTFLU
		b := &c.ship
		b.flu = c
		b.tasks = append(b.tasks[:0], task)
		s.shipBatch(c.ctr, b)
		b.flu, c.cont = nil, false
		return nil
	}
	// Hand the items to the container's DLU daemon (FIFO) first, so the data
	// ships during the pressure block below, not after it. The queued task
	// holds a request reference until it has shipped.
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
		c.blocked += s.clk.Since(blockStart)
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

// remoteBpsFloor returns the lowest observed wire throughput among the
// remote nodes this Put's items are destined for (0 when none is measured
// yet). Called only when the cluster has remote nodes, off the bench-gated
// local hot path.
func (s *System) remoteBpsFloor(r *request, items []dataflow.Item) float64 {
	floor := 0.0
	for i := range items {
		if items[i].To.Fn == workflow.UserSource {
			continue
		}
		st := s.fnList[items[i].ToFn()]
		// The request's pin, when one exists, names the node the items will
		// actually cross the wire to; otherwise the primary is the best guess.
		node := st.primary()
		r.mu.Lock()
		for j := range r.route {
			if r.route[j].fn == st.name {
				node = r.route[j].node
				break
			}
		}
		r.mu.Unlock()
		if !node.Remote() {
			continue
		}
		if obs := node.ObservedBps(); obs > 0 && (floor == 0 || obs < floor) {
			floor = obs
		}
	}
	return floor
}

// dluGroup is one (request, destination-replica) shipment edge of a
// batch. node is nil for user-destined items, which never touch a sink.
// items is what ships: the producing task's own backing while the edge has
// a single run (one Put, one edge — the common case copies nothing), buf
// once a second run joined it.
type dluGroup struct {
	req   *request
	node  *cluster.Node
	items []dataflow.Item
	buf   []dataflow.Item
}

// dluBatch is the daemon's reusable drain scratch; its backings survive
// across batches so steady-state shipping allocates nothing.
type dluBatch struct {
	tasks  []cluster.DLUTask
	groups []dluGroup
	reqs   []wmm.PutReq
	// flu is the producer's Context while it ships this batch on its own
	// goroutine (Context.put), nil on the daemon's.
	flu *Context
}

// addRun files a run of one task's items under its shipment edge. Batches
// have a handful of edges, so a linear scan beats a map.
func (b *dluBatch) addRun(r *request, node *cluster.Node, run []dataflow.Item) {
	if len(run) == 0 {
		return
	}
	for i := range b.groups {
		g := &b.groups[i]
		if g.req == r && g.node == node {
			if len(g.buf) == 0 {
				g.buf = append(g.buf, g.items...)
			}
			g.buf = append(g.buf, run...)
			g.items = g.buf
			return
		}
	}
	if n := len(b.groups); n < cap(b.groups) {
		b.groups = b.groups[:n+1] // reuse the retired group's buf backing
	} else {
		b.groups = append(b.groups, dluGroup{})
	}
	g := &b.groups[len(b.groups)-1]
	g.req, g.node, g.items = r, node, run
}

// dropReqs empties the put scratch, dropping its payload references.
func (b *dluBatch) dropReqs() {
	clear(b.reqs)
	b.reqs = b.reqs[:0]
}

// dluDaemon is the container's Data Logic Unit (§5.1): it drains whatever
// the queue already holds into one batch and ships per shipment edge. The
// drain never waits — a batch is whatever accumulated while the previous
// one shipped — so an idle system flushes every task immediately and a lone
// request pays no batching latency.
func (s *System) dluDaemon(ctr *cluster.Container, queue <-chan cluster.DLUTask) {
	var b dluBatch
	for task := range queue {
		b.tasks = append(b.tasks[:0], task)
	drain:
		for len(b.tasks) < transport.DefaultBatchTasks {
			select {
			case task, more := <-queue:
				if !more {
					// Closed mid-drain: the buffered tasks all arrived
					// before the close, so ship them; the next receive exits.
					break drain
				}
				b.tasks = append(b.tasks, task)
			default:
				break drain // flush-on-idle
			}
		}
		n := len(b.tasks)
		s.shipBatch(ctr, &b)
		ctr.DLUShipped(n)
	}
}

// shipBatch resolves every item of the batch's tasks onto its shipment
// edge and ships each edge with batched pipe/sink/accounting interactions.
// It is the only ship implementation; the DLU daemon calls it with a drained
// batch and Context.put with a batch of its one task. The daemon drops each task's
// request reference once the whole batch has shipped.
func (s *System) shipBatch(ctr *cluster.Container, b *dluBatch) {
	items, stripe := 0, uint32(0)
	for ti := range b.tasks {
		task := &b.tasks[ti]
		r := task.Ref.(*request)
		r.live(task.Gen)
		items, stripe = items+len(task.Items), r.stripe
		// Split the task into runs of consecutive items sharing an edge;
		// one Put's items almost always form a single run.
		start := 0
		var runNode *cluster.Node
		for i := range task.Items {
			it := &task.Items[i]
			// Replica selection, locality-first: when the destination
			// function has a replica on the producer's own node the edge
			// degenerates to the local pipe (no network); otherwise the
			// request pins the least-loaded replica. The pin is write-once
			// per request+function, so every item and every instance of the
			// function agree on the node.
			var node *cluster.Node
			if it.To.Fn != workflow.UserSource {
				node, it.Replica = s.routeFor(r, s.fnList[it.ToFn()], ctr.Node)
			}
			if node != runNode {
				b.addRun(r, runNode, task.Items[start:i])
				start, runNode = i, node
			}
		}
		b.addRun(r, runNode, task.Items[start:])
	}
	obsBatchItems.Observe(stripe, int64(items))
	for i := range b.groups {
		s.shipGroup(ctr, &b.groups[i], b)
	}
	for i := range b.groups {
		g := &b.groups[i]
		clear(g.buf) // drop payload references
		*g = dluGroup{buf: g.buf[:0]}
	}
	b.groups = b.groups[:0]
	// Groups ship from the task backings, so those are free only now.
	for ti := range b.tasks {
		recycleItems(b.tasks[ti])
		if b.flu == nil {
			b.tasks[ti].Ref.(*request).release()
		}
		b.tasks[ti] = cluster.DLUTask{}
	}
}

// shipGroup moves one shipment edge's items: straight to the user, through
// the local pipe when src and dst share a node, or across nodes. Remote edges
// and edges whose every payload fits the socket fast path ship whole, one
// frame per edge (a payload over the frame cap fails the request with
// transport.ErrFrameTooLarge). Otherwise each item goes alone — streamed when
// streaming-sized or under a failure injector, which addresses streams — and
// lands once its own bytes are across, never waiting for a sibling's stream.
func (s *System) shipGroup(ctr *cluster.Container, g *dluGroup, b *dluBatch) {
	if s.cfg.Trace != nil || g.req.span != nil {
		for i := range g.items {
			it, note := &g.items[i], ""
			if s.cfg.Trace != nil {
				note = fmt.Sprintf("%s->%s %dB", it.Output, it.To, it.Value.Size)
			}
			s.event(g.req, trace.DataSent, it.From.Fn, it.From.Idx, note)
		}
	}
	switch {
	case g.node == nil:
		s.deliverBatch(g.req, g.items, nil, nil, b.flu)
	case g.node == ctr.Node:
		// Local pipe connector: pump straight into the local data sink.
		s.landBatch(g.req, g.items, g.node, b, transport.Pacing{}, 0)
	case g.node.Remote() || !s.streams(g.items):
		s.shipSocket(ctr, g.req, g.items, g.node, b)
	default:
		for i := range g.items {
			one := g.items[i : i+1]
			if !s.streams(one) {
				s.shipSocket(ctr, g.req, one, g.node, b)
			} else if s.ship(ctr, g.req, &one[0], g.node) {
				s.landBatch(g.req, one, g.node, b, transport.Pacing{}, 0)
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
func (s *System) shipSocket(ctr *cluster.Container, r *request, items []dataflow.Item, node *cluster.Node, b *dluBatch) {
	var total int64
	for i := range items {
		total += items[i].Value.Size
	}
	pace := transport.Pacing{
		Src:     ctr.Limiter,
		Items:   len(items),
		Bytes:   total,
		TraceID: r.span.ID(),
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
		Src:       ctr.Limiter,
		ChunkSize: s.cfg.ChunkSize,
		Retries:   retryLimit,
		Clock:     ctr.Node.Clock(),
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

// landBatch caches one edge's items in the destination sink with a single
// multi-put (a direct edge skips it), then advances the tracker under one lock hold.
// pace carries the edge's source-side wire charge (zero for local pipes and
// re-lands); attempt counts the re-lands this shipment already took.
func (s *System) landBatch(r *request, items []dataflow.Item, node *cluster.Node, b *dluBatch, pace transport.Pacing, attempt int) {
	if s.ft && attempt < retryLimit && node.Health() == cluster.Down {
		// The destination died while the shipment was in flight.
		s.reland(r, items, b, attempt+1)
		return
	}
	b.reqs = b.reqs[:0]
	// The direct edge: the producer ships inline as a continuation with nothing
	// parked yet, and this one item is all its consumer waits for, so the
	// consumer is this goroutine's next job and the datum never waits. It pays
	// the wire and skips the sink — no key, put, arrived record or residue.
	direct := b.flu != nil && b.flu.cont && b.flu.next.req == nil && len(items) == 1 &&
		attempt == 0 && s.fnList[items[0].ToFn()].direct
	if direct {
		obsDirectEdges.Inc(r.stripe)
	} else {
		id := r.inv.ReqID()
		for i := range items {
			b.reqs = append(b.reqs, wmm.PutReq{
				Key:       sinkKey(id, items[i]),
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
	if s.ft && attempt < retryLimit && node.Health() == cluster.Down {
		// The destination was declared dead between the check above and the
		// put. Its sink is wiped after it is marked Down, so the put may have
		// landed behind the wipe, where no repair or teardown would ever look
		// again: drop whatever this request left there and land elsewhere.
		b.dropReqs()
		node.SinkRelease(r.inv.ReqID()) //nolint:errcheck // best effort: an unreachable sink holds nothing to release
		s.reland(r, items, b, attempt+1)
		return
	}
	if !direct {
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
	if s.cfg.Trace != nil || r.span != nil {
		for i := range items {
			it, note := &items[i], ""
			if s.cfg.Trace != nil {
				note = fmt.Sprintf("%s %dB", it.Input, it.Value.Size)
			}
			s.event(r, trace.DataArrived, it.To.Fn, it.To.Idx, note)
		}
	}
	s.deliverBatch(r, items, b.reqs, node, b.flu)
	b.dropReqs()
}

// reland re-ships a shipment whose destination died in flight: repair the
// request's pins and land on the survivors instead. Repair is per item —
// each pin rewrite may pick a different survivor — and unpaced: the wire
// charge died with the connection.
func (s *System) reland(r *request, items []dataflow.Item, b *dluBatch, attempt int) {
	for i := range items {
		var node *cluster.Node
		node, items[i].Replica = s.relandTarget(r, items[i].To.Fn)
		s.landBatch(r, items[i:i+1], node, b, transport.Pacing{}, attempt)
	}
}

// deliverBatch advances the tracker with every item of one edge and reacts
// to readiness and completion, under one r.mu hold. reqs are the sink keys
// the items were cached under on node, index-aligned (empty for user-destined
// and direct edges); flu is the producer's Context when it is the one shipping
// (scheduleReady may park a consumer in it).
func (s *System) deliverBatch(r *request, items []dataflow.Item, reqs []wmm.PutReq, node *cluster.Node, flu *Context) {
	var readyBuf [4]dataflow.Ready // on the stack: a delivery readies a handful of instances
	r.mu.Lock()
	for i := range items {
		it := items[i]
		if len(reqs) > 0 {
			r.recordArrived(s.arrivedKey(it), arrivedItem{item: it, key: reqs[i].Key, node: node})
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

// sinkKey derives the Wait-Match Memory key of an item from its addressing,
// so producers and consumers agree without coordination. An item routed to a
// non-primary replica carries a "#r<ordinal>" qualifier: a key names the
// datum and its replica. Built by hand, one allocation for the key string.
func sinkKey(reqID string, it dataflow.Item) wmm.Key {
	var b strings.Builder
	b.Grow(len(it.Input) + len(it.From.Fn) + len(it.Output) + 20)
	b.WriteString(it.Input)
	b.WriteByte('@')
	writeInt(&b, it.To.Idx)
	b.WriteString("<-")
	writeInstanceKey(&b, it.From)
	b.WriteByte('.')
	b.WriteString(it.Output)
	if it.Replica > 0 {
		b.WriteString("#r")
		writeInt(&b, it.Replica)
	}
	return wmm.Key{
		ReqID: reqID,
		Fn:    it.To.Fn,
		Data:  b.String(),
	}
}

// writeInt appends n in decimal through a stack buffer (no allocation).
func writeInt(b *strings.Builder, n int) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], int64(n), 10))
}

// writeInstanceKey appends key's fn[idx] form without the fmt machinery.
func writeInstanceKey(b *strings.Builder, key dataflow.InstanceKey) {
	b.WriteString(key.Fn)
	b.WriteByte('[')
	writeInt(b, key.Idx)
	b.WriteByte(']')
}

// streamIDOf formats the cross-node stream identifier
// (reqID/from.output->to) without the fmt machinery: the checkpoint log and
// the failure injector address streams by it, and a failed one is named by it.
func streamIDOf(reqID string, it dataflow.Item) string {
	var b strings.Builder
	b.Grow(len(reqID) + len(it.From.Fn) + len(it.Output) + len(it.To.Fn) + 16)
	b.WriteString(reqID)
	b.WriteByte('/')
	writeInstanceKey(&b, it.From)
	b.WriteByte('.')
	b.WriteString(it.Output)
	b.WriteString("->")
	writeInstanceKey(&b, it.To)
	return b.String()
}

// arrivedItem pairs a landed item with the sink key it was cached under and
// the node whose sink holds it, so the consume side (instance Gets,
// teardown's shared-input reclaim) never rebuilds the key string and never
// re-derives the routing decision.
type arrivedItem struct {
	item dataflow.Item
	key  wmm.Key
	node *cluster.Node
}

// arrivedBucket collects the arrived items of one instance key. consumed is
// set once the instance fetched its inputs (fault-tolerant mode only), so
// repair skips the bucket; a fanned function's {Fn, BroadcastIdx} bucket,
// shared by all instances, is never marked consumed.
type arrivedBucket struct {
	key      dataflow.InstanceKey
	items    []arrivedItem
	consumed bool
	// inline seeds items: a bucket's first arrival allocates nothing (a moved
	// bucket's header keeps the old, heap-alive, inline storage valid).
	inline [1]arrivedItem
}

// arrivedFor returns the arrived items recorded under key. Caller holds r.mu.
func (r *request) arrivedFor(key dataflow.InstanceKey) []arrivedItem {
	for i := range r.arrived {
		if r.arrived[i].key == key {
			return r.arrived[i].items
		}
	}
	return nil
}

// recordArrived appends one landed item under key. Caller holds r.mu.
func (r *request) recordArrived(key dataflow.InstanceKey, ai arrivedItem) {
	for i := range r.arrived {
		if r.arrived[i].key == key {
			r.arrived[i].items = append(r.arrived[i].items, ai)
			return
		}
	}
	r.arrived = append(r.arrived, arrivedBucket{key: key})
	b := &r.arrived[len(r.arrived)-1]
	b.items = append(b.inline[:0], ai)
}

// arrivedKey maps an item to the arrived bucket of the instance that fetches
// it. An item addressed to every instance of a function (BroadcastIdx) has
// one reader when the function has one instance, so it is filed under that
// instance and released at its fetch — the paper's proactive release (§7).
// Only a FOREACH-fanned function's shared input keeps the {Fn, BroadcastIdx}
// bucket, which no instance consumes and teardown reclaims.
func (s *System) arrivedKey(it dataflow.Item) dataflow.InstanceKey {
	if it.To.Idx == dataflow.BroadcastIdx && s.fnList[it.ToFn()].single {
		return dataflow.InstanceKey{Fn: it.To.Fn}
	}
	return it.To
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
