// Package clock abstracts time for the runtime plane so that components can
// be driven either by the wall clock (production) or by a manually advanced
// clock (tests). The simulation plane has its own virtual time inside
// internal/sim; this package is only used by the real concurrent runtime.
package clock

import (
	"slices"
	"sync"
	"time"
)

// Clock is the minimal time source used by the runtime plane. A reading is
// one integer, the time since the clock's own start, so two readings meet
// by subtraction and carry no location.
type Clock interface {
	// Now returns the current reading.
	Now() time.Duration
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
	// After returns a channel that receives the time after d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// NoReading stands in for a reading not taken. Every reading is at or after
// its clock's start, so 0 is a reading like any other.
const NoReading time.Duration = -1

// Wall is the real-time clock backed by the time package.
type Wall struct{}

// NewWall returns the wall clock.
func NewWall() Wall { return Wall{} }

// epoch anchors Wall.Now: the process's first reading of both clocks.
var epoch = time.Now()

// Now implements Clock with one monotonic reading: the time since the
// epoch. time.Now reads the wall clock as well, which costs as much again
// and which the runtime plane never uses, and a time.Time result would cost
// its Add, Sub and Before arithmetic at every use. A step of the system
// clock after start-up does not move the reading.
func (Wall) Now() time.Duration { return time.Since(epoch) }

// Deadline returns the wall instant d from now, for the one place an instant
// leaves the process: a socket deadline, which the poller reads.
func Deadline(d time.Duration) time.Time { return time.Now().Add(d) }

// Sleep implements Clock. On Linux it wakes at its deadline whether or not
// the process is otherwise idle, which time.Sleep does not (park_linux.go).
func (Wall) Sleep(d time.Duration) { park(d) }

// After implements Clock.
func (Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Manual is a test clock moved explicitly, by Advance or Step. Sleepers and
// After channels fire when the clock reaches their deadline; an After channel
// receives the zero time moved by the reading it fired at. A test knows what
// is parked on it without polling: Parked announces the n-th sleeper,
// Deadlines says when each wakes, and Step wakes only the earliest. The zero
// value is not usable; construct with NewManual.
type Manual struct {
	mu      sync.Mutex
	now     time.Duration
	waiters []*manualWaiter
	watches []parkWatch // Parked channels not yet closed
}

type manualWaiter struct {
	deadline time.Duration
	ch       chan time.Time
}

// parkWatch is one Parked call waiting for n sleepers.
type parkWatch struct {
	n  int
	ch chan struct{}
}

// NewManual returns a Manual clock reading 0.
//
//repolint:testseam tests drive the engine, nodes and limiters in virtual time
func NewManual() *Manual {
	return &Manual{}
}

// Now implements Clock.
func (m *Manual) Now() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Sleep implements Clock: it blocks until the clock reaches the deadline.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// After implements Clock.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	w := &manualWaiter{deadline: m.now + d, ch: make(chan time.Time, 1)}
	fireAt := time.Time{}.Add(m.now)
	immediate := d <= 0
	if !immediate {
		m.waiters = append(m.waiters, w)
		m.announceLocked()
	}
	m.mu.Unlock()
	if immediate {
		w.ch <- fireAt // buffered, and w has not escaped yet
	}
	return w.ch
}

// announceLocked closes every Parked channel whose count is reached.
func (m *Manual) announceLocked() {
	keep := m.watches[:0]
	for _, w := range m.watches {
		if len(m.waiters) >= w.n {
			close(w.ch)
		} else {
			keep = append(keep, w)
		}
	}
	clear(m.watches[len(keep):])
	m.watches = keep
}

// Advance moves the clock forward by d, firing every waiter whose deadline is
// reached. It never blocks.
//
//repolint:testseam tests drive the engine, nodes and limiters in virtual time
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now += d
	now, due := m.now, m.dueLocked()
	m.mu.Unlock()
	wake(due, now)
}

// Step moves the clock to the earliest deadline a sleeper is parked at and
// wakes the sleepers due then, and only those; a later sleeper stays parked
// until the next Step. It reports false, and moves nothing, when nothing is
// parked. It never blocks.
//
//repolint:testseam tests move virtual time one wake-up at a time
func (m *Manual) Step() bool {
	m.mu.Lock()
	if len(m.waiters) == 0 {
		m.mu.Unlock()
		return false
	}
	next := m.waiters[0].deadline
	for _, w := range m.waiters[1:] {
		next = min(next, w.deadline)
	}
	m.now = next
	due := m.dueLocked()
	m.mu.Unlock()
	wake(due, next)
	return true
}

// dueLocked removes and returns the waiters due at the current reading.
// Caller holds m.mu.
func (m *Manual) dueLocked() []*manualWaiter {
	var due []*manualWaiter
	keep := m.waiters[:0]
	for _, w := range m.waiters {
		if w.deadline <= m.now {
			due = append(due, w)
		} else {
			keep = append(keep, w)
		}
	}
	clear(m.waiters[len(keep):])
	m.waiters = keep
	return due
}

// wake fires the waiters at reading now. Each channel has a free slot: a
// waiter fires once.
func wake(due []*manualWaiter, now time.Duration) {
	for _, w := range due {
		w.ch <- time.Time{}.Add(now)
	}
}

// Pending reports how many sleepers are waiting on the clock.
//
//repolint:testseam tests read it to know what a step would wake
func (m *Manual) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// Parked returns a channel that is closed once at least n sleepers are
// parked on the clock at one instant: at once if they already are, else by
// the After or Sleep that parks the n-th. Receiving from it is how a test
// blocks until the goroutines it expects have reached the clock.
//
//repolint:testseam tests block on it until the sleepers they expect have parked
func (m *Manual) Parked(n int) <-chan struct{} {
	ch := make(chan struct{})
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.waiters) >= n {
		close(ch)
	} else {
		m.watches = append(m.watches, parkWatch{n: n, ch: ch})
	}
	return ch
}

// Deadlines returns the readings the parked sleepers wake at, earliest
// first, so a test tells sleepers apart by when they wake.
//
//repolint:testseam tests tell an Eq. 1 block from a limiter park by its deadline
func (m *Manual) Deadlines() []time.Duration {
	m.mu.Lock()
	out := make([]time.Duration, 0, len(m.waiters))
	for _, w := range m.waiters {
		out = append(out, w.deadline)
	}
	m.mu.Unlock()
	slices.Sort(out)
	return out
}
