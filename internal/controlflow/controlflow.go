// Package controlflow is the runtime-plane control-flow baseline: a
// FaaSFlow-style orchestrator that triggers a function only when all of its
// predecessor functions have completed, and passes intermediate data through
// backend storage (double transfer). It shares the cluster, storage and
// workflow substrates with internal/core, so the two paradigms can be
// compared head-to-head in one process — the runtime twin of the
// simulation-plane comparison.
package controlflow

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/storage"
	"repro/internal/workflow"
)

// Handler is a user function body under the control-flow paradigm. Outputs
// emitted through the Context are buffered and persisted to backend storage
// after the function completes (the synchronous Put phase).
type Handler func(ctx *Context) error

// Context is the function's view of one invocation.
type Context struct {
	ReqID    string
	Instance dataflow.InstanceKey

	inputs map[string][]dataflow.Value
	// buffered emissions: persisted after the handler returns.
	emits []emission
}

type emission struct {
	output     string
	values     []dataflow.Value
	switchCase int
}

// Input returns the single value of a NORMAL input.
func (c *Context) Input(name string) ([]byte, error) {
	vals := c.inputs[name]
	if len(vals) == 0 {
		return nil, fmt.Errorf("controlflow: input %q has no data", name)
	}
	return vals[0].Payload, nil
}

// InputList returns all values of a LIST input in producer-instance order.
func (c *Context) InputList(name string) ([][]byte, error) {
	vals, ok := c.inputs[name]
	if !ok {
		return nil, fmt.Errorf("controlflow: unknown input %q", name)
	}
	out := make([][]byte, 0, len(vals))
	for _, v := range vals {
		out = append(out, v.Payload)
	}
	return out, nil
}

// Put buffers one payload for a NORMAL or MERGE output. Unlike DataFlower's
// DLU, nothing moves until the function completes.
func (c *Context) Put(output string, payload []byte) error {
	c.emits = append(c.emits, emission{
		output: output,
		values: []dataflow.Value{{Payload: payload, Size: int64(len(payload))}},
	})
	return nil
}

// PutForeach buffers a FOREACH output.
func (c *Context) PutForeach(output string, payloads [][]byte) error {
	vals := make([]dataflow.Value, len(payloads))
	for i, p := range payloads {
		vals[i] = dataflow.Value{Payload: p, Size: int64(len(p))}
	}
	c.emits = append(c.emits, emission{output: output, values: vals})
	return nil
}

// PutSwitch buffers a SWITCH output with the chosen case.
func (c *Context) PutSwitch(output string, payload []byte, switchCase int) error {
	c.emits = append(c.emits, emission{
		output:     output,
		values:     []dataflow.Value{{Payload: payload, Size: int64(len(payload))}},
		switchCase: switchCase,
	})
	return nil
}

// Config assembles a control-flow System.
type Config struct {
	Workflow *workflow.Workflow
	Cluster  *cluster.Cluster
	// Store is the backend storage service for intermediate data.
	Store *storage.Store
	// Spec is the container specification (128 MB default).
	DefaultSpec cluster.Spec
	// TriggerOverhead is the orchestrator's per-function state-management
	// delay (§3.2.3; the paper measures ~63 ms on production platforms).
	TriggerOverhead time.Duration
	// Clock is the orchestrator's time source (invocation timestamps and
	// the trigger-overhead sleep when a function's node is unknown). Nil
	// means the wall clock; tests can inject clock.NewManual.
	Clock clock.Clock
}

// System is one deployed workflow under the control-flow orchestrator.
type System struct {
	cfg      Config
	wf       *workflow.Workflow
	routing  cluster.RoutingTable
	handlers map[string]Handler

	mu     sync.Mutex
	seq    int64
	closed bool
	bg     sync.WaitGroup
}

// NewSystem validates and deploys the workflow.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Workflow == nil || cfg.Cluster == nil || cfg.Store == nil {
		return nil, errors.New("controlflow: Config needs Workflow, Cluster and Store")
	}
	if err := cfg.Workflow.Validate(); err != nil {
		return nil, err
	}
	if cfg.DefaultSpec.MemoryMB == 0 {
		cfg.DefaultSpec = cluster.Spec{MemoryMB: cluster.BaseMemoryMB}
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewWall()
	}
	var fns []string
	for _, f := range cfg.Workflow.Functions {
		fns = append(fns, f.Name)
	}
	return &System{
		cfg:      cfg,
		wf:       cfg.Workflow,
		routing:  cfg.Cluster.Place(fns).Table(),
		handlers: make(map[string]Handler),
	}, nil
}

// Register installs a handler.
func (s *System) Register(fn string, h Handler) error {
	if _, ok := s.wf.Function(fn); !ok {
		return fmt.Errorf("controlflow: unknown function %q", fn)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[fn] = h
	return nil
}

// Invocation is one in-flight or finished request.
type Invocation struct {
	ReqID string

	clk clock.Clock

	mu      sync.Mutex
	tracker *dataflow.Tracker
	done    chan struct{}
	err     error
	start   time.Time
	end     time.Time
	// finished marks functions whose every instance completed.
	finished  map[string]bool
	triggered map[string]bool
	remaining map[string]int
}

// Done is closed at completion.
func (inv *Invocation) Done() <-chan struct{} { return inv.done }

// Err returns the terminal error (valid after Done).
func (inv *Invocation) Err() error {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.err
}

// Latency returns the end-to-end latency (valid after Done).
func (inv *Invocation) Latency() time.Duration {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.end.Sub(inv.start)
}

// Wait blocks until completion.
func (inv *Invocation) Wait() error {
	<-inv.done
	return inv.Err()
}

// OutputBytes returns the payload of the first user item with the given
// output name.
func (inv *Invocation) OutputBytes(output string) ([]byte, bool) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	for _, it := range inv.tracker.UserItems() {
		if it.Output == output {
			return it.Value.Payload, true
		}
	}
	return nil, false
}

func (inv *Invocation) fail(err error) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if inv.err == nil {
		inv.err = err
	}
	inv.finishLocked()
}

func (inv *Invocation) finishLocked() {
	select {
	case <-inv.done:
	default:
		inv.end = inv.clk.Now()
		close(inv.done)
	}
}

// Invoke starts one request: the orchestrator persists the user input to
// backend storage and triggers the entry functions.
func (s *System) Invoke(input map[string][]byte) (*Invocation, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("controlflow: system is shut down")
	}
	for _, f := range s.wf.Functions {
		if _, ok := s.handlers[f.Name]; !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("controlflow: function %q has no handler", f.Name)
		}
	}
	s.seq++
	reqID := fmt.Sprintf("cf-%d", s.seq)
	s.mu.Unlock()

	inv := &Invocation{
		ReqID:     reqID,
		clk:       s.cfg.Clock,
		tracker:   dataflow.NewTracker(s.wf, reqID),
		done:      make(chan struct{}),
		start:     s.cfg.Clock.Now(),
		finished:  make(map[string]bool),
		triggered: make(map[string]bool),
		remaining: make(map[string]int),
	}
	// Persist user input to storage (the gateway upload) and record it in
	// the tracker so entry inputs resolve.
	userVals := map[string]dataflow.Value{}
	for k, b := range input {
		s.cfg.Store.Put(storage.Key(reqID, workflow.UserSource, k), b)
		userVals[k] = dataflow.Value{Payload: b, Size: int64(len(b))}
	}
	inv.mu.Lock()
	if _, err := inv.tracker.Start(userVals); err != nil {
		inv.mu.Unlock()
		return nil, err
	}
	inv.mu.Unlock()
	for _, f := range s.wf.Entries() {
		s.triggerFn(inv, f.Name)
	}
	return inv, nil
}

// instancesOf returns how many instances of fn run for this request (known
// once the FOREACH producer has emitted; 1 otherwise).
func (inv *Invocation) instancesOf(fn string) int {
	k, known := inv.tracker.Fanout(fn)
	if !known {
		return 1
	}
	return k
}

// triggerFn launches every instance of fn after the orchestrator's
// state-management overhead.
func (s *System) triggerFn(inv *Invocation, fn string) {
	inv.mu.Lock()
	if inv.triggered[fn] {
		inv.mu.Unlock()
		return
	}
	inv.triggered[fn] = true
	n := inv.instancesOf(fn)
	inv.remaining[fn] = n
	inv.mu.Unlock()

	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		if s.cfg.TriggerOverhead > 0 {
			node, _ := s.cfg.Cluster.Node(s.routing[fn])
			if node != nil {
				node.Clock().Sleep(s.cfg.TriggerOverhead)
			} else {
				s.cfg.Clock.Sleep(s.cfg.TriggerOverhead)
			}
		}
		for i := 0; i < n; i++ {
			i := i
			s.bg.Add(1)
			go func() {
				defer s.bg.Done()
				s.runInstance(inv, dataflow.InstanceKey{Fn: fn, Idx: i})
			}()
		}
	}()
}

// runInstance executes one instance: Get inputs from storage, run the
// handler, Put outputs to storage, then notify the orchestrator. The
// container is held for the whole sequence (sequential resource usage).
func (s *System) runInstance(inv *Invocation, key dataflow.InstanceKey) {
	node, _ := s.cfg.Cluster.Node(s.routing[key.Fn])
	if node == nil {
		inv.fail(fmt.Errorf("controlflow: no node for %s", key.Fn))
		return
	}
	ctr, warm := node.AcquireIdle(key.Fn)
	if !warm {
		ctr = node.StartContainer(key.Fn, s.cfg.DefaultSpec)
	}
	defer node.Release(ctr)

	// Get phase: load every input value from backend storage, paced by the
	// container's bandwidth class.
	inv.mu.Lock()
	inputs := inv.tracker.Inputs(key)
	inv.mu.Unlock()
	for name, vals := range inputs {
		for range vals {
			_ = name
		}
	}
	var inBytes int64
	for _, vals := range inputs {
		for _, v := range vals {
			inBytes += v.Size
		}
	}
	ctr.Limiter.Take(inBytes)

	ctx := &Context{ReqID: inv.ReqID, Instance: key, inputs: inputs}
	if err := s.handlers[key.Fn](ctx); err != nil {
		inv.fail(fmt.Errorf("controlflow: %s: %w", key, err))
		return
	}

	// Put phase: persist every emission to backend storage (double
	// transfer), then deliver to the tracker bookkeeping.
	for _, em := range ctx.emits {
		inv.mu.Lock()
		items, err := inv.tracker.Route(key, em.output, em.values, em.switchCase)
		inv.mu.Unlock()
		if err != nil {
			inv.fail(err)
			return
		}
		for _, it := range items {
			if it.To.Fn != workflow.UserSource {
				ctr.Limiter.Take(it.Value.Size)
				s.cfg.Store.Put(storage.Key(inv.ReqID, it.To.Fn, it.Input+"#"+it.From.String()), it.Value.Payload)
			}
			inv.mu.Lock()
			_, derr := inv.tracker.Deliver(it)
			inv.mu.Unlock()
			if derr != nil {
				inv.fail(derr)
				return
			}
		}
	}
	s.completeInstance(inv, key)
}

// completeInstance updates completion state and triggers successors whose
// predecessors have all finished.
func (s *System) completeInstance(inv *Invocation, key dataflow.InstanceKey) {
	inv.mu.Lock()
	inv.remaining[key.Fn]--
	if inv.remaining[key.Fn] > 0 {
		inv.mu.Unlock()
		return
	}
	inv.finished[key.Fn] = true
	var toTrigger []string
	for _, succ := range s.wf.Successors(key.Fn) {
		ready := true
		for _, pre := range s.wf.Predecessors(succ) {
			if !inv.finished[pre] {
				ready = false
				break
			}
		}
		if ready {
			toTrigger = append(toTrigger, succ)
		}
	}
	complete := inv.tracker.Complete() && s.allTerminalsDone(inv)
	if complete {
		inv.finishLocked()
		// End-of-request storage cleanup (the only release point the
		// control-flow paradigm has).
		s.cfg.Store.DeletePrefix(inv.ReqID + "/")
	}
	inv.mu.Unlock()
	for _, fn := range toTrigger {
		s.triggerFn(inv, fn)
	}
}

func (s *System) allTerminalsDone(inv *Invocation) bool {
	for _, t := range s.wf.Terminals() {
		if !inv.finished[t.Name] {
			return false
		}
	}
	return true
}

// Shutdown waits for background work and rejects further invocations.
func (s *System) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.bg.Wait()
}
