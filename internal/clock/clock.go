// Package clock abstracts time for the runtime plane so that components can
// be driven either by the wall clock (production) or by a manually advanced
// clock (tests). The simulation plane has its own virtual time inside
// internal/sim; this package is only used by the real concurrent runtime.
package clock

import (
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

// Manual is a test clock advanced explicitly with Advance. Sleepers and After
// channels fire when the clock passes their deadline; an After channel
// receives the zero time moved by the reading it fired at. The zero value is
// not usable; construct with NewManual.
type Manual struct {
	mu      sync.Mutex
	now     time.Duration
	waiters []*manualWaiter
}

type manualWaiter struct {
	deadline time.Duration
	ch       chan time.Time
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

// Sleep implements Clock: it blocks until Advance moves the clock past the
// deadline.
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
	}
	m.mu.Unlock()
	if immediate {
		w.ch <- fireAt // buffered, and w has not escaped yet
	}
	return w.ch
}

// Advance moves the clock forward by d, firing every waiter whose deadline is
// reached. It never blocks.
//
//repolint:testseam tests drive the engine, nodes and limiters in virtual time
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now += d
	now := m.now
	var keep []*manualWaiter
	var fire []*manualWaiter
	for _, w := range m.waiters {
		if w.deadline <= now {
			fire = append(fire, w)
		} else {
			keep = append(keep, w)
		}
	}
	m.waiters = keep
	m.mu.Unlock()
	for _, w := range fire {
		w.ch <- time.Time{}.Add(now)
	}
}

// Pending reports how many sleepers are waiting on the clock. Useful for
// tests that need to know a goroutine has reached its Sleep.
//
//repolint:testseam tests wait on it to know a goroutine has parked
func (m *Manual) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}
