// Package sim is a deterministic discrete-event simulation kernel.
//
// Processes are ordinary goroutines written in direct style, but the kernel
// runs exactly one process at a time (cooperative scheduling with explicit
// hand-off), so simulations are deterministic: events at equal virtual time
// run in schedule order.
//
// The kernel provides virtual time (Env.Now), process spawning (Env.Go),
// sleeping (Proc.Sleep), one-shot events (Event) and FIFO queues (Queue).
// The cluster simulation in
// internal/simcluster is built entirely on these primitives.
//
// Usage rules: after Env.Run* is called, the environment must only be
// touched from inside processes. Before Run, the owning goroutine may set up
// processes and prime queues.
package sim

import (
	"container/heap"
	"math/rand"
	"time"
)

// Env is a simulation environment: a virtual clock plus an event queue.
type Env struct {
	now     time.Duration
	eq      eventHeap
	seq     int64
	yieldCh chan struct{}
	rng     *rand.Rand
}

// NewEnv returns an empty environment at virtual time zero with a
// deterministic RNG seeded by seed.
func NewEnv(seed int64) *Env {
	return &Env{
		yieldCh: make(chan struct{}),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Rand returns the environment's deterministic random source. Must only be
// used from process context (single-threaded by construction).
func (e *Env) Rand() *rand.Rand { return e.rng }

// schedule enqueues fn to run at virtual time at (clamped to now).
func (e *Env) schedule(at time.Duration, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.eq, &schedItem{at: at, seq: e.seq, run: fn})
}

// ScheduleAt enqueues fn to run in kernel context at virtual time at
// (clamped to now). fn must not block; it may trigger events, prime queues,
// or call ScheduleAt again. Intended for lightweight reactive logic (timer
// wheels, rate recomputation) that does not warrant a full process.
func (e *Env) ScheduleAt(at time.Duration, fn func()) {
	e.schedule(at, fn)
}

// Go spawns a process executing fn. The process starts at the current
// virtual time once the kernel reaches its start event. Go may be called
// before Run or from inside another process.
func (e *Env) Go(fn func(p *Proc)) *Proc {
	p := &Proc{env: e, wake: make(chan any)}
	e.schedule(e.now, func() {
		go func() {
			fn(p)
			p.dead = true
			p.env.yieldCh <- struct{}{}
		}()
		<-e.yieldCh
	})
	return p
}

// Run processes events until the event queue is empty and returns the final
// virtual time.
func (e *Env) Run() time.Duration {
	for len(e.eq) > 0 {
		it := heap.Pop(&e.eq).(*schedItem)
		e.now = it.at
		it.run()
	}
	return e.now
}

// RunUntil processes events with timestamps <= deadline, then sets the clock
// to deadline. Events scheduled beyond deadline remain queued.
func (e *Env) RunUntil(deadline time.Duration) {
	for len(e.eq) > 0 && e.eq[0].at <= deadline {
		it := heap.Pop(&e.eq).(*schedItem)
		e.now = it.at
		it.run()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// resume hands control to p, delivering v as the result of its pending wait,
// and blocks until p yields again or finishes.
func (e *Env) resume(p *Proc, v any) {
	if p.dead {
		return
	}
	p.wake <- v
	<-e.yieldCh
}

// scheduleResume schedules p to be resumed with v at the current time.
func (e *Env) scheduleResume(p *Proc, v any) {
	e.schedule(e.now, func() { e.resume(p, v) })
}

// schedItem is one queued kernel action.
type schedItem struct {
	at  time.Duration
	seq int64
	run func()
}

type eventHeap []*schedItem

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*schedItem)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Proc is a simulation process. All Proc methods must be called from the
// process's own goroutine.
type Proc struct {
	env  *Env
	wake chan any
	dead bool
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// yield blocks the process until the kernel resumes it, returning the value
// delivered by the resumer.
func (p *Proc) yield() any {
	p.env.yieldCh <- struct{}{}
	return <-p.wake
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.env
	e.schedule(e.now+d, func() { e.resume(p, nil) })
	p.yield()
}

// waitReg is a registration of a waiting process. done guards against
// double resume when the process is registered with several wakers (a
// getter and its timeout); wrap transforms the delivered value before resuming.
type waitReg struct {
	p    *Proc
	done *bool
	wrap func(any) any
}

// fire resumes the registered process with v (transformed by wrap) unless
// another registration sharing the same done flag fired first. It reports
// whether it resumed the process.
func (w *waitReg) fire(v any) bool {
	if *w.done {
		return false
	}
	*w.done = true
	if w.wrap != nil {
		v = w.wrap(v)
	}
	w.p.env.scheduleResume(w.p, v)
	return true
}

// Event is a one-shot level-triggered event carrying a value. Once
// triggered, all current and future waiters proceed immediately.
type Event struct {
	env       *Env
	triggered bool
	val       any
	waiters   []*waitReg
}

// NewEvent returns an untriggered event.
func NewEvent(env *Env) *Event { return &Event{env: env} }

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// Trigger fires the event with value v, waking all waiters. Subsequent
// triggers are no-ops.
func (ev *Event) Trigger(v any) {
	if ev.triggered {
		return
	}
	ev.triggered = true
	ev.val = v
	ws := ev.waiters
	ev.waiters = nil
	for _, w := range ws {
		w.fire(v)
	}
}

// register attaches a waiter, firing it immediately if already triggered.
func (ev *Event) register(w *waitReg) {
	if ev.triggered {
		w.fire(ev.val)
		return
	}
	ev.waiters = append(ev.waiters, w)
}

// Wait blocks until the event fires and returns its value.
func (p *Proc) Wait(ev *Event) any {
	done := false
	ev.register(&waitReg{p: p, done: &done})
	return p.yield()
}

// Queue is an unbounded-or-bounded FIFO channel between processes.
// Cap <= 0 means unbounded.
type Queue struct {
	env     *Env
	cap     int
	items   []any
	getters []*waitReg
	closed  bool
}

// NewQueue returns a queue with the given capacity (<= 0 for unbounded).
func NewQueue(env *Env, capacity int) *Queue {
	return &Queue{env: env, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue) Len() int { return len(q.items) }

// Close marks the queue closed: blocked and future Get calls return
// (nil, false) once the buffer drains; TryPut on a closed queue panics.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	if len(q.items) == 0 {
		gs := q.getters
		q.getters = nil
		for _, g := range gs {
			g.fire(getResult{nil, false})
		}
	}
}

type getResult struct {
	item any
	ok   bool
}

// TryPut inserts item without blocking. It reports false when the queue is
// at capacity.
func (q *Queue) TryPut(item any) bool {
	if q.closed {
		panic("sim: TryPut on closed Queue")
	}
	// Hand directly to a waiting getter if any.
	for len(q.getters) > 0 {
		g := q.getters[0]
		q.getters = q.getters[1:]
		if g.fire(getResult{item, true}) {
			return true
		}
	}
	if q.cap > 0 && len(q.items) >= q.cap {
		return false
	}
	q.items = append(q.items, item)
	return true
}

// TryGet removes and returns the head item without blocking.
func (q *Queue) TryGet() (any, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	it := q.items[0]
	q.items = q.items[1:]
	return it, true
}

// Get removes and returns the head item, blocking while the queue is empty.
// ok is false if the queue was closed and drained.
func (p *Proc) Get(q *Queue) (any, bool) {
	if it, ok := q.TryGet(); ok {
		return it, true
	}
	if q.closed {
		return nil, false
	}
	done := false
	q.getters = append(q.getters, &waitReg{p: p, done: &done})
	r := p.yield().(getResult)
	return r.item, r.ok
}

// GetTimeout is Get with a virtual-time timeout; timedOut is true when the
// timeout elapsed first.
func (p *Proc) GetTimeout(q *Queue, d time.Duration) (item any, ok bool, timedOut bool) {
	if it, got := q.TryGet(); got {
		return it, true, false
	}
	if q.closed {
		return nil, false, false
	}
	done := false
	q.getters = append(q.getters, &waitReg{p: p, done: &done, wrap: func(v any) any { return v }})
	timeoutReg := &waitReg{p: p, done: &done, wrap: func(any) any { return getResult{nil, false} }}
	timedOutFlag := false
	e := p.env
	e.schedule(e.now+d, func() {
		if timeoutReg.fire(nil) {
			timedOutFlag = true
		}
	})
	r := p.yield().(getResult)
	if timedOutFlag {
		return nil, false, true
	}
	return r.item, r.ok, false
}
