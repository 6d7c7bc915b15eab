// Package clock abstracts time for the runtime plane so that components can
// be driven either by the wall clock (production) or by a manually advanced
// clock (tests). The simulation plane has its own virtual time inside
// internal/sim; this package is only used by the real concurrent runtime.
package clock

import (
	"sync"
	"time"
)

// Clock is the minimal time source used by the runtime plane.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
	// After returns a channel that receives the time after d has elapsed.
	After(d time.Duration) <-chan time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
}

// Wall is the real-time clock backed by the time package.
type Wall struct{}

// NewWall returns the wall clock.
func NewWall() Wall { return Wall{} }

// epoch anchors Wall.Now: the process's first reading of both clocks.
var epoch = time.Now()

// Now implements Clock with one monotonic reading: the epoch advanced by the
// monotonic time since. time.Now reads the wall clock as well, which costs
// as much again and which the runtime plane never uses — its readings only
// ever meet each other through Sub, Since and Before. The wall part of the
// result is therefore the epoch's, moved by elapsed time, and does not
// follow a step of the system clock after start-up.
func (Wall) Now() time.Time { return epoch.Add(time.Since(epoch)) }

// Sleep implements Clock. On Linux it wakes at its deadline whether or not
// the process is otherwise idle, which time.Sleep does not (park_linux.go).
func (Wall) Sleep(d time.Duration) { park(d) }

// After implements Clock.
func (Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (Wall) Since(t time.Time) time.Duration { return time.Since(t) }

// Manual is a test clock advanced explicitly with Advance. Sleepers and After
// channels fire when the clock passes their deadline. The zero value is not
// usable; construct with NewManual.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*manualWaiter
}

type manualWaiter struct {
	deadline time.Time
	ch       chan time.Time
}

// NewManual returns a Manual clock starting at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
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
	w := &manualWaiter{deadline: m.now.Add(d), ch: make(chan time.Time, 1)}
	fireAt := m.now
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

// Since implements Clock.
func (m *Manual) Since(t time.Time) time.Duration {
	return m.Now().Sub(t)
}

// Advance moves the clock forward by d, firing every waiter whose deadline is
// reached. It never blocks.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	var keep []*manualWaiter
	var fire []*manualWaiter
	for _, w := range m.waiters {
		if !w.deadline.After(now) {
			fire = append(fire, w)
		} else {
			keep = append(keep, w)
		}
	}
	m.waiters = keep
	m.mu.Unlock()
	for _, w := range fire {
		w.ch <- now
	}
}

// Pending reports how many sleepers are waiting on the clock. Useful for
// tests that need to know a goroutine has reached its Sleep.
func (m *Manual) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}
