// Package trace records execution events from both planes and extracts the
// timelines the paper plots: function triggering timelines (Fig. 13) and
// control-plane triggering overheads (Fig. 2(c)).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	ReqArrived Kind = iota
	InstanceReady
	InstanceTriggered
	InstanceStarted
	InstanceFinished
	DataSent
	DataArrived
	ContainerCold
	ReqCompleted
	// Replay marks a fault-tolerance recovery action: a request's route pin
	// was repaired off a dead node and lost data was re-shipped there.
	Replay
)

// String names the kind.
func (k Kind) String() string {
	names := [...]string{
		"req-arrived", "ready", "triggered", "started", "finished",
		"data-sent", "data-arrived", "container-cold", "req-completed",
		"replay",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded occurrence.
type Event struct {
	At    time.Duration
	Kind  Kind
	ReqID string
	Fn    string
	Idx   int
	Note  string
}

// Log is an append-only, concurrency-safe event log. An unbounded log
// (NewLog) keeps every event; a bounded one (NewLogBounded) keeps the most
// recent n, evicting the oldest.
type Log struct {
	mu     sync.Mutex
	events []Event
	// bound > 0 makes events a ring of that capacity; head is the index of
	// the oldest event once the ring has wrapped.
	bound int
	head  int
}

// NewLog returns an empty unbounded log.
func NewLog() *Log { return &Log{} }

// NewLogBounded returns an empty log that retains at most n events
// (unbounded when n <= 0). Long scenario/stress runs and the simulation
// plane default to a bounded log so a multi-hour storm cannot grow the
// trace without limit. Storage grows on demand up to n — a short run never pays for the bound.
func NewLogBounded(n int) *Log {
	if n <= 0 {
		return NewLog()
	}
	return &Log{bound: n}
}

// Append records an event, evicting the oldest when a bounded log is full.
func (l *Log) Append(e Event) {
	l.mu.Lock()
	if l.bound > 0 && len(l.events) == l.bound {
		l.events[l.head] = e
		l.head++
		if l.head == l.bound {
			l.head = 0
		}
	} else {
		l.events = append(l.events, e)
	}
	l.mu.Unlock()
}

// Events returns a copy of the retained events in append order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.events))
	out = append(out, l.events[l.head:]...)
	out = append(out, l.events[:l.head]...)
	return out
}

// ForRequest returns the events of one request sorted by time.
func (l *Log) ForRequest(reqID string) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.ReqID == reqID {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Span is one function instance's lifetime within a request.
type Span struct {
	Fn        string
	Idx       int
	Triggered time.Duration
	Started   time.Duration
	Finished  time.Duration
}

// Spans extracts per-instance spans for a request (the Fig. 13 timeline).
func (l *Log) Spans(reqID string) []Span {
	type key struct {
		fn  string
		idx int
	}
	m := map[key]*Span{}
	var order []key
	for _, e := range l.ForRequest(reqID) {
		k := key{e.Fn, e.Idx}
		s, ok := m[k]
		if !ok {
			if e.Kind != InstanceTriggered && e.Kind != InstanceStarted && e.Kind != InstanceFinished {
				continue
			}
			s = &Span{Fn: e.Fn, Idx: e.Idx}
			m[k] = s
			order = append(order, k)
		}
		switch e.Kind {
		case InstanceTriggered:
			s.Triggered = e.At
		case InstanceStarted:
			s.Started = e.At
		case InstanceFinished:
			s.Finished = e.At
		}
	}
	out := make([]Span, 0, len(order))
	for _, k := range order {
		out = append(out, *m[k])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Triggered != out[j].Triggered {
			return out[i].Triggered < out[j].Triggered
		}
		return out[i].Fn < out[j].Fn
	})
	return out
}

// TriggerGap is the delay between a function finishing and its successor
// being triggered — the control-plane overhead the paper measures in
// Fig. 2(c). Negative gaps mean the successor was triggered early, before
// its predecessor finished (DataFlower's out-of-order triggering).
type TriggerGap struct {
	From string
	To   string
	Gap  time.Duration
}

// TriggerGaps pairs each instance trigger with the finish time of its
// latest-finishing predecessor instance, per request. preds maps a function
// to its predecessor functions.
func (l *Log) TriggerGaps(reqID string, preds map[string][]string) []TriggerGap {
	spans := l.Spans(reqID)
	finishedAt := map[string]time.Duration{}
	for _, s := range spans {
		if s.Finished > finishedAt[s.Fn] {
			finishedAt[s.Fn] = s.Finished
		}
	}
	triggeredAt := map[string]time.Duration{}
	for _, s := range spans {
		if cur, ok := triggeredAt[s.Fn]; !ok || s.Triggered < cur {
			triggeredAt[s.Fn] = s.Triggered
		}
	}
	var out []TriggerGap
	for fn, ps := range preds {
		trig, ok := triggeredAt[fn]
		if !ok {
			continue
		}
		var latest time.Duration
		var latestFn string
		found := false
		for _, p := range ps {
			if fin, ok := finishedAt[p]; ok && (!found || fin > latest) {
				latest = fin
				latestFn = p
				found = true
			}
		}
		if !found {
			continue
		}
		out = append(out, TriggerGap{From: latestFn, To: fn, Gap: trig - latest})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].To < out[j].To })
	return out
}

// FormatTimeline renders spans as an aligned text timeline.
func FormatTimeline(spans []Span) string {
	var b strings.Builder
	for _, s := range spans {
		fmt.Fprintf(&b, "%-12s[%d]  trig=%8.3fs  start=%8.3fs  fin=%8.3fs\n",
			s.Fn, s.Idx, s.Triggered.Seconds(), s.Started.Seconds(), s.Finished.Seconds())
	}
	return b.String()
}

// Gantt renders spans as an ASCII Gantt chart: one row per instance, `-`
// from trigger to start (queued/cold-start), `#` from start to finish
// (executing). width is the chart width in characters.
func Gantt(spans []Span, width int) string {
	if len(spans) == 0 {
		return ""
	}
	if width < 20 {
		width = 20
	}
	var end time.Duration
	for _, s := range spans {
		if s.Finished > end {
			end = s.Finished
		}
	}
	if end == 0 {
		end = time.Second
	}
	col := func(at time.Duration) int {
		c := int(float64(at) / float64(end) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	var b strings.Builder
	for _, s := range spans {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		from, mid, to := col(s.Triggered), col(s.Started), col(s.Finished)
		for i := from; i <= to && i < width; i++ {
			if i < mid {
				row[i] = '-'
			} else {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%-12s |%s|\n", fmt.Sprintf("%s[%d]", s.Fn, s.Idx), row)
	}
	fmt.Fprintf(&b, "%-12s 0%*s\n", "", width, fmt.Sprintf("%.3fs", end.Seconds()))
	return b.String()
}
