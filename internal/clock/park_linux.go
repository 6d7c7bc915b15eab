//go:build linux

package clock

import (
	"container/heap"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// A goroutine in time.Sleep wakes when some thread of the runtime next looks
// at the timer heap. A busy process looks constantly; an idle one has parked
// its last thread in epoll_wait, whose timeout is whole milliseconds rounded
// up (golang/go#44343), so time.Sleep(164µs) takes 1.1 ms and
// time.Sleep(1.5ms) takes 2.2 ms on an otherwise idle engine. The park below
// turns the deadline into an event in that same poller: a timerfd whose
// expiry interrupts the epoll_wait. It costs no thread — the one service
// goroutine blocks in the netpoller like any socket reader — and every
// sleeper also keeps an ordinary runtime timer, so under CPU saturation
// (where runtime timers are already on time and nobody may poll the
// netpoller for up to 10 ms) it wakes by whichever comes first.
//
// Even the timerfd wakes its sleeper some microseconds after the expiry: the
// idle CPU must come back, the service goroutine must run, take the lock and
// hand the token on, and then the sleeper must run. That is 14 µs per 164 µs
// park and 39 µs per 655 µs park in an otherwise idle process on a 2-vCPU
// guest (BenchmarkParkLateness in internal/pipe). So the parker learns that
// latency (lead: the running mean of how far past its aimed instant each
// sleeper ran) and aims every park that much before its deadline, at most a
// quarter of the sleep early, arming both the timerfd and the runtime timer
// there; the woken sleeper then yields the processor with runtime.Gosched
// until the deadline itself. A sleep therefore never returns early and never
// spins without yielding, and what it pays for waking on time — 2 µs late
// per 164 µs park, 11 µs per 655 µs park — is up to 10 µs more CPU per park.

// waiter is one parked goroutine. Waiters are pooled, timer and channel
// included, so a park allocates nothing. In the pool a waiter's timer is
// stopped and both channels are empty.
type waiter struct {
	deadline int64         // aimed wake, a Wall reading
	index    int           // position in the parker's heap, -1 once out of it
	wake     chan struct{} // buffered 1: the service's "your deadline passed"
	timer    *time.Timer   // the runtime timer raced against the service
}

var waiters = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{wake: make(chan struct{}, 1), timer: t}
}}

// sinceEpoch is Wall.Now in nanoseconds: waiter deadlines are Wall readings.
func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// deadlineHeap is a min-heap of waiters by deadline (container/heap).
type deadlineHeap []*waiter

func (h deadlineHeap) Len() int           { return len(h) }
func (h deadlineHeap) Less(i, j int) bool { return h[i].deadline < h[j].deadline }
func (h deadlineHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *deadlineHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *deadlineHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	w.index = -1
	return w
}

// parker is a deadline heap served by one goroutine reading one timerfd.
// Whichever sleeper holds the earliest deadline arms the descriptor; the
// service wakes every waiter whose deadline has passed and re-arms for the
// next. A nil *parker (timerfd refused) sleeps on the runtime timer alone.
type parker struct {
	fd  uintptr  // non-blocking timerfd
	tfd *os.File // fd registered in the runtime's poller; serve waits on it

	mu      sync.Mutex
	waiting deadlineHeap
	// armed is the deadline the descriptor was last set to, 0 once the
	// service has consumed that expiry. It may belong to a waiter that has
	// since left by its runtime timer; that expiry wakes the service for
	// nothing and is cheaper than a disarming syscall on every such exit.
	armed int64

	// lead is the parker's wake latency in nanoseconds: the running mean of
	// how far past its aimed instant each sleeper ran (nextLead), 0 until the
	// first wake. Concurrent sleepers may overwrite each other's update; the
	// mean only loses a sample.
	lead atomic.Int64
}

// leadWeight is the running mean's weight: each wake moves lead 1/leadWeight
// of the way to its own lateness.
const leadWeight = 8

// nextLead folds one wake's lateness, in nanoseconds past the aimed instant,
// into the running mean lead.
func nextLead(lead, late int64) int64 { return lead + (late-lead)/leadWeight }

// aimLead is how far before its deadline a sleep of d aims: the learned lead,
// but never more than a quarter of the sleep, which bounds the yielding a
// lead inflated by one stalled wake can cost.
func aimLead(lead int64, d time.Duration) int64 { return min(lead, int64(d)/4) }

// newParker starts a parker on the descriptor create returns, or returns nil
// if create is refused (a seccomp profile without timerfd_create, an
// exhausted descriptor table).
func newParker(create func() (fd int, err error)) *parker {
	fd, err := create()
	if err != nil {
		return nil
	}
	// The descriptor is non-blocking, so os.NewFile registers it with the
	// netpoller and waiting for it parks a goroutine, not a thread.
	p := &parker{fd: uintptr(fd), tfd: os.NewFile(uintptr(fd), "timerfd")}
	go p.serve()
	return p
}

func timerfdCreate() (int, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE,
		clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

// wallParker is the process-wide parker behind Wall.Sleep, started by the
// first sleep so that virtual-time processes never create it.
var wallParker = sync.OnceValue(func() *parker { return newParker(timerfdCreate) })

func park(d time.Duration) { wallParker().sleep(d) }

// sleep blocks for at least d. It parks until d's deadline less the learned
// lead, then yields until the deadline.
func (p *parker) sleep(d time.Duration) {
	if p == nil {
		time.Sleep(d)
		return
	}
	if d <= 0 {
		return
	}
	early := aimLead(p.lead.Load(), d)
	w := waiters.Get().(*waiter)
	deadline := sinceEpoch() + int64(d)
	w.deadline = deadline - early
	p.mu.Lock()
	heap.Push(&p.waiting, w)
	if w.index == 0 && (p.armed == 0 || w.deadline < p.armed) {
		p.arm(w.deadline)
	}
	p.mu.Unlock()
	// Reset after the deadline was taken: the timer cannot fire before the
	// aimed instant.
	w.timer.Reset(d - time.Duration(early))
	select {
	case <-w.wake:
		if !w.timer.Stop() {
			<-w.timer.C // fired meanwhile: take the tick so the pool gets it empty
		}
	case <-w.timer.C:
		p.mu.Lock()
		queued := w.index >= 0
		if queued {
			heap.Remove(&p.waiting, w.index)
		}
		p.mu.Unlock()
		if !queued {
			<-w.wake // the service popped w under mu, token included
		}
	}
	now := sinceEpoch()
	p.lead.Store(nextLead(p.lead.Load(), now-w.deadline))
	waiters.Put(w)
	for ; now < deadline; now = sinceEpoch() {
		runtime.Gosched()
	}
}

// arm sets the descriptor to expire at deadline. Called with p.mu held.
func (p *parker) arm(deadline int64) {
	rel := deadline - sinceEpoch()
	if rel < 1 {
		rel = 1 // a zero it_value would disarm
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(rel)}
	// timerfd_settime on a descriptor this parker owns, with a valid spec,
	// has no failure mode; were it to fail, every sleeper still holds its
	// runtime timer.
	syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	p.armed = deadline
}

// serve wakes due waiters each time the descriptor expires.
func (p *parker) serve() {
	rc, err := p.tfd.SyscallConn()
	if err != nil {
		return
	}
	// The poller is edge-triggered: read the expiry count on every wake, or
	// the next expiry is not an edge. The read is a RawSyscall because it
	// cannot block (the descriptor is non-blocking) and because p.tfd.Read's
	// entersyscall wakes sysmon out of its idle sleep — twice per park, which
	// measured as 25 µs of CPU on top of an idle park's 45.
	var expirations [8]byte
	var errno syscall.Errno
	drain := func(fd uintptr) (done bool) {
		_, _, errno = syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&expirations)), 8)
		return errno != syscall.EAGAIN
	}
	for {
		// rc.Read parks this goroutine in the netpoller between drains.
		if err := rc.Read(drain); err != nil || errno != 0 {
			// The poller would not take the descriptor, or it stopped being
			// one (nobody closes it). Sleepers are not stranded: their
			// runtime timers fire.
			return
		}
		p.mu.Lock()
		now := sinceEpoch()
		for len(p.waiting) > 0 && p.waiting[0].deadline <= now {
			w := heap.Pop(&p.waiting).(*waiter)
			select {
			case w.wake <- struct{}{}:
			default: // cap 1 and empty by the pool invariant; never taken
			}
		}
		p.armed = 0
		if len(p.waiting) > 0 {
			p.arm(p.waiting[0].deadline)
		}
		p.mu.Unlock()
	}
}
