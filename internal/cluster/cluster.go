// Package cluster provides the runtime plane's cluster substrate: worker
// nodes hosting function containers with memory-proportional CPU and
// network resources (the paper allocates 0.1 core and 40 Mbps per 128 MB of
// container memory, enforced with cgroup and TC), container pools, and the
// routing plane — placement policies that map each function to an ordered
// replica set, fixed at placement, as an immutable RoutingSnapshot (see
// routing.go).
//
// A node keeps one FnPool per function: the live containers, one hand-back
// slot per request stripe and, behind the slots, a LIFO free-list under the
// pool's own mutex, so acquiring and releasing a container never takes the
// node's lock and a warm request takes no lock at all. Invariant: a live
// container has exactly one owner — a holder (Busy), one slot or the list
// (Idle) — and only its owner changes its state. Lock order: Node.mu →
// FnPool.mu.
//
// The runtime plane never expires a warm container: the engine's
// per-function cap bounds each pool. The paper's keep-alive is 15 minutes,
// longer than any simulated run, so the simulation plane expires none
// either.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/transport"
	"repro/internal/wmm"
)

// Spec is a container resource specification. Resources scale linearly with
// memory, following the paper's §9.1 configuration.
type Spec struct {
	MemoryMB int
}

// BaseMemoryMB is the reference container size.
const BaseMemoryMB = 128

// BaseBandwidthBps is the network bandwidth of a 128 MB container in
// bytes/second (40 Mbit/s).
const BaseBandwidthBps = 40e6 / 8

// BandwidthBps returns the container's network bandwidth in bytes/second.
func (s Spec) BandwidthBps() float64 {
	return float64(s.MemoryMB) / BaseMemoryMB * BaseBandwidthBps
}

// DefaultAlpha is the transfer loss factor α of Eq. 1.
const DefaultAlpha = 1.1

// Pressure is Eq. 1, α·Size/Bw − T_FLU: how much longer shipping bytes at
// bps takes than the FLU takes to produce them. Positive means the function
// is transfer-bound and its FLU should be throttled by that much. Both
// planes call it, and the operand order is part of the contract: the
// simulation's figures are byte-stable only while the float rounding is.
func Pressure(alpha, bytes, bps float64, tFLU time.Duration) time.Duration {
	return time.Duration(alpha*bytes/bps*float64(time.Second)) - tFLU
}

// State is a container lifecycle state.
type State int

// Container states.
const (
	Idle State = iota
	Busy
)

// String names the state.
func (s State) String() string {
	if s == Idle {
		return "idle"
	}
	return "busy"
}

// DLUQueueDepth is the task buffer of a container's DLU daemon.
const DLUQueueDepth = 256

// DLUTask is one batch of routed items queued to a container's DLU daemon.
// Ref carries the engine's request state; it is typed any but always holds
// a pointer, so enqueuing a task by value never allocates. Gen is the
// generation of Ref the task was made under (the engine recycles request
// state and checks the two still agree when the task ships).
type DLUTask struct {
	Ref   any
	Gen   uint32
	Items []dataflow.Item
	// Buf is the engine's recyclable backing of Items (typed any, always a
	// pointer when set); the consumer hands it back to its pool once the
	// items are shipped.
	Buf any
}

// Container hosts one function's FLU threads and DLU daemon.
type Container struct {
	ID   string
	Fn   string
	Spec Spec
	Node *Node
	pool *FnPool

	// Limiter is the container's TC bandwidth class; DLU transfers pass
	// through it.
	Limiter *pipe.Limiter

	// state is written only by the container's owner (see FnPool).
	state atomic.Int32

	// DLU daemon state. The container owns its queue and lifecycle — started
	// lazily on first enqueue, closed when the engine shuts down — so the
	// engine needs no global channel registry.
	// Senders hold dluMu across the channel send and DLUClose takes the same
	// mutex, so an enqueue can never race a close into a send-on-closed-
	// channel panic; a close issued while the queue is full simply waits for
	// the daemon to drain the blocked send.
	dluMu sync.Mutex
	dluCh chan DLUTask
	// dluTasks counts tasks enqueued and not yet reported shipped, plus
	// dluClosedBit once the queue is closed (under dluMu), so DLUQuiet is one
	// load. Atomic, not under dluMu: the daemon reports while a sender may be
	// holding dluMu across a send into the full queue only the daemon drains.
	dluTasks atomic.Int32
}

const dluClosedBit = 1 << 30 // far above any DLUQueueDepth task count

// DLUEnqueue hands one task to the container's DLU daemon queue. queue is
// non-nil for exactly the call that created it: that caller must start the
// daemon goroutine draining it (under its own lifecycle tracking). ok is
// false — and the task not enqueued — once the queue is closed (engine shut
// down); the caller is then responsible for unwinding any accounting it did
// for the dropped task.
func (c *Container) DLUEnqueue(task DLUTask) (queue <-chan DLUTask, ok bool) {
	c.dluMu.Lock()
	defer c.dluMu.Unlock()
	if c.dluTasks.Load()&dluClosedBit != 0 {
		return nil, false
	}
	if c.dluCh == nil {
		c.dluCh = make(chan DLUTask, DLUQueueDepth)
		queue = c.dluCh
	}
	c.dluTasks.Add(1)
	c.dluCh <- task //repolint:ignore lockheld the close protocol depends on this send staying under dluMu: DLUClose takes the same mutex, so a close can never race the send into a send-on-closed-channel panic
	return queue, true
}

// DLUShipped tells the container its daemon finished shipping one task.
func (c *Container) DLUShipped() { c.dluTasks.Add(-1) }

// DLUQuiet reports whether the DLU plane is open with no task queued or
// shipping. Only then may the FLU ship an output itself without overtaking
// one it handed to the daemon earlier (per-container FIFO); a closed plane
// is never quiet, so a late Put still reaches DLUEnqueue and is refused.
func (c *Container) DLUQuiet() bool { return c.dluTasks.Load() == 0 }

// DLUClose closes the container's DLU queue; the daemon exits once it has
// drained the remaining tasks. Idempotent and safe concurrently with
// DLUEnqueue (late enqueues are refused, never panicked).
func (c *Container) DLUClose() {
	c.dluMu.Lock()
	defer c.dluMu.Unlock()
	if c.dluTasks.Load()&dluClosedBit != 0 {
		return
	}
	c.dluTasks.Add(dluClosedBit)
	if c.dluCh != nil {
		close(c.dluCh)
	}
}

// Options configures a Node.
type Options struct {
	// ColdStart is the container cold-start delay.
	ColdStart time.Duration
	// SinkTTL is the Wait-Match Memory passive-expire TTL.
	SinkTTL time.Duration
	// Clock defaults to the wall clock.
	Clock clock.Clock //repolint:testseam tests drive nodes on clock.Manual
}

// Node is one worker node.
type Node struct {
	Name string
	clk  clock.Clock
	opts Options

	// Sink is the node's Wait-Match Memory data sink. Nil for remote nodes
	// (NewRemoteNode), whose sink lives in another process — the engine
	// reaches every sink through the Sink* wrappers (dataplane.go), which
	// route through dp.
	Sink *wmm.Sink

	// dp is the node's data plane: the Transport every sink interaction
	// crosses. For local nodes it is inproc (the direct path, also kept
	// concretely for the streaming-pipe seam); for remote nodes it is a wire
	// client and inproc is nil.
	dp     transport.Transport
	inproc *transport.Inproc
	remote bool

	// health is the node's position in the Up/Draining/Down state machine
	// (health.go); an atomic because the engines consult it on routing hot
	// paths. The zero value is Up.
	health atomic.Int32

	// mu guards the pool table and the container ids.
	mu      sync.Mutex
	pools   map[string]*FnPool // fn -> its containers on this node
	dluShut bool               // set by CloseDLUs: containers born afterwards start closed
	nextID  int64
	started time.Duration
}

// newNode is what local and remote nodes share: everything but the sink.
func newNode(name string, opts Options) *Node {
	clk := opts.Clock
	if clk == nil {
		clk = clock.NewWall()
	}
	n := &Node{
		Name:    name,
		clk:     clk,
		opts:    opts,
		pools:   make(map[string]*FnPool),
		started: clk.Now(),
	}
	return n
}

// NewNode returns an empty node.
func NewNode(name string, opts Options) *Node {
	n := newNode(name, opts)
	n.Sink = wmm.NewSink(wmm.Options{TTL: opts.SinkTTL})
	n.inproc = transport.NewInproc(n.Sink, nil, n.Elapsed)
	n.dp = n.inproc
	return n
}

// NewRemoteNode returns a node whose Wait-Match Memory lives in another
// process, reached through dp. The node still hosts local containers (FLU
// threads run wherever the engine runs); only the data sink is remote. The
// engine prices Eq. 1 for a Put toward it as toward a local node, at the
// source container's TC rate: nothing about dp enters the pressure signal.
// The bool is unused; ROADMAP item 1 drops it with bench/workload.go's
// positional call.
func NewRemoteNode(name string, dp transport.Transport, _ bool, opts Options) *Node {
	n := newNode(name, opts)
	n.dp = dp
	n.remote = true
	return n
}

// Clock returns the node's clock.
func (n *Node) Clock() clock.Clock { return n.clk }

// Elapsed returns the time since the node started (used as the sink's
// virtual timestamp).
func (n *Node) Elapsed() time.Duration { return n.clk.Now() - n.started }

// ColdStart returns the delay StartContainer sleeps on its caller's goroutine.
func (n *Node) ColdStart() time.Duration { return n.opts.ColdStart }

// poolSlot is one request stripe's hand-back slot, alone on its cache line.
type poolSlot struct {
	c atomic.Pointer[Container]
	_ [56]byte
}

// FnPool is one function's containers on one node (see the package doc).
type FnPool struct {
	// slots hold at most one idle container per request stripe, in front of
	// the list: the holder that ran a stripe's last instance leaves its
	// container here and the stripe's next instance takes it with one swap,
	// so a warm request reads and writes no line another stripe writes. A
	// resident belongs to whoever swaps it out — its stripe or an acquirer
	// that found the list empty.
	slots [obs.NumStripes]poolSlot

	mu sync.Mutex
	// live is every container started on the node. It changes only with the
	// node's mu held as well, so either lock reads it.
	live []*Container
	// idle is the free-list, kept LIFO so the most recently used container
	// (warmest caches) is acquired first.
	idle []*Container
}

// Pool returns fn's container pool on the node, created on first use; the
// engine resolves it once per function and node.
func (n *Node) Pool(fn string) *FnPool {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.pools[fn]
	if p == nil {
		p = new(FnPool)
		n.pools[fn] = p
	}
	return p
}

// slot returns stripe's hand-back slot.
func (p *FnPool) slot(stripe uint32) *atomic.Pointer[Container] {
	return &p.slots[stripe&(obs.NumStripes-1)].c
}

// hold marks a container busy for the owner that just took it out of a slot
// or off the list. It reports false for one that is not idle: ownership says
// that cannot happen, and such an entry is dropped rather than handed out.
func (c *Container) hold() bool {
	return c.state.CompareAndSwap(int32(Idle), int32(Busy))
}

// handBack marks a busy container idle ahead of its return to the pool. It
// reports false, and the caller returns nothing, when the container is not
// busy: a second Release of one hold.
func (c *Container) handBack() bool {
	return c.state.CompareAndSwap(int32(Busy), int32(Idle))
}

// Acquire takes an idle container for a request on stripe, marking it busy:
// the stripe's own slot with one swap, else the shared list. ok is false
// when none is idle.
func (p *FnPool) Acquire(stripe uint32) (*Container, bool) {
	if c := p.slot(stripe).Swap(nil); c != nil && c.hold() {
		return c, true
	}
	return p.acquireShared()
}

// acquireShared pops the list and, when it is empty, takes another stripe's
// resident, so no caller cold-starts beside an idle container.
func (p *FnPool) acquireShared() (*Container, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.idle) > 0 {
		c := p.idle[len(p.idle)-1]
		p.idle[len(p.idle)-1] = nil
		p.idle = p.idle[:len(p.idle)-1]
		if c.hold() {
			return c, true
		}
	}
	for i := range p.slots {
		if s := &p.slots[i].c; s.Load() != nil {
			if c := s.Swap(nil); c != nil && c.hold() {
				return c, true
			}
		}
	}
	return nil, false
}

// Release returns a busy container on stripe: into the stripe's slot when
// that is empty, else onto the list.
func (p *FnPool) Release(c *Container, stripe uint32) {
	if c.handBack() && !p.slot(stripe).CompareAndSwap(nil, c) {
		p.push(c)
	}
}

func (p *FnPool) push(c *Container) {
	p.mu.Lock()
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// PoolExhausted reports whether the container's pool — its function on its
// node — has no idle container, slot residents included, and fewer than max
// live ones: the next instance there would cold-start, and one more
// container fits under max. One hold of the pool's mutex answers both.
func (c *Container) PoolExhausted(max int) bool {
	p := c.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) > 0 || len(p.live) >= max {
		return false
	}
	for i := range p.slots {
		if p.slots[i].c.Load() != nil {
			return false
		}
	}
	return true
}

// AcquireIdle returns an idle container for fn, marking it busy. ok is
// false when none is idle.
func (n *Node) AcquireIdle(fn string) (*Container, bool) { return n.Pool(fn).acquireShared() }

// StartContainer cold-starts a new container for fn with the given spec and
// returns it in the Busy state. The calling goroutine sleeps for the
// cold-start delay.
func (n *Node) StartContainer(fn string, spec Spec) *Container {
	if n.opts.ColdStart > 0 {
		n.clk.Sleep(n.opts.ColdStart)
	}
	pool := n.Pool(fn)
	n.mu.Lock()
	n.nextID++
	c := &Container{
		ID:      fmt.Sprintf("%s/%s-%d", n.Name, fn, n.nextID),
		Fn:      fn,
		Spec:    spec,
		Node:    n,
		pool:    pool,
		Limiter: pipe.NewLimiter(n.clk, spec.BandwidthBps()),
	}
	c.state.Store(int32(Busy))
	// A container born after CloseDLUs (engine shutdown racing a cold
	// start) must never open a DLU queue nobody will drain.
	if n.dluShut {
		c.dluTasks.Store(dluClosedBit)
	}
	pool.mu.Lock()
	pool.live = append(pool.live, c)
	pool.mu.Unlock()
	obsColdStarts.Inc(0)
	n.mu.Unlock()
	return c
}

// Release returns a busy container to its function's list.
func (n *Node) Release(c *Container) {
	if c.handBack() {
		c.pool.push(c)
	}
}

// CloseDLUs closes every container's DLU queue and marks the node so
// containers started later are born closed. Engine shutdown calls this
// once no more useful work can be enqueued; daemons exit after draining.
func (n *Node) CloseDLUs() {
	n.mu.Lock()
	n.dluShut = true
	var all []*Container
	for _, p := range n.pools {
		all = append(all, p.live...)
	}
	n.mu.Unlock()
	// Close outside n.mu: a close can wait on a sender draining a full
	// queue, and that drain must not need the node lock.
	for _, c := range all {
		c.DLUClose()
	}
}

// Containers returns the number of containers started for fn, or for all
// functions when fn is empty.
//
//repolint:testseam the runtime's routing and failover tests count what each node started
func (n *Node) Containers(fn string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for name, p := range n.pools {
		if fn == "" || fn == name {
			total += len(p.live)
		}
	}
	return total
}

// Cluster groups the worker nodes and the load balancer. The node registry
// is read-mostly — AddNode is a deployment-time event, while Node/Nodes sit
// on engine paths — so it is guarded by an RWMutex.
type Cluster struct {
	mu     sync.RWMutex
	nodes  map[string]*Node
	order  []string
	policy PlacementPolicy
}

// NewCluster returns a cluster using the given placement policy
// (RoundRobin when nil).
func NewCluster(policy PlacementPolicy) *Cluster {
	if policy == nil {
		policy = RoundRobin{}
	}
	return &Cluster{nodes: make(map[string]*Node), policy: policy}
}

// AddNode registers a node.
func (c *Cluster) AddNode(n *Node) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.nodes[n.Name]; dup {
		return fmt.Errorf("cluster: duplicate node %q", n.Name)
	}
	c.nodes[n.Name] = n
	c.order = append(c.order, n.Name)
	return nil
}

// Node returns the named node.
func (c *Cluster) Node(name string) (*Node, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nodes[name]
	return n, ok
}

// Nodes returns the node names in registration order.
func (c *Cluster) Nodes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// nodeList snapshots the registered nodes in registration order.
func (c *Cluster) nodeList() []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Node, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.nodes[name])
	}
	return out
}

// Place runs the placement policy over the given functions and returns the
// resulting snapshot with replicas on non-Up nodes excluded. The policy
// callback runs without any cluster lock held, so a policy is free to call
// back into the cluster (Nodes, Node) while deciding.
func (c *Cluster) Place(functions []string) *RoutingSnapshot {
	return c.healthFilter(c.policy.Place(functions, c.Nodes()))
}
