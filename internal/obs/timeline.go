package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// StageKind classifies a recorded stage of a request.
type StageKind int

// Stage kinds, shared by the engine, the TCP transport's receive side and
// the simulation plane.
const (
	ReqArrived StageKind = iota
	InstanceReady
	InstanceTriggered
	InstanceStarted
	InstanceFinished
	DataSent
	DataArrived
	ContainerCold
	ReqCompleted
	// Replay marks a fault-tolerance recovery action: Idx data a dead node
	// lost were re-shipped to their functions' repaired pins.
	Replay
)

// String names the kind.
func (k StageKind) String() string {
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

// The functions below read one request's stages sorted by At, as
// SpanRing.Stages returns them (the simulation records in time order).
// They extract the timelines the paper plots: function triggering
// timelines (Fig. 13) and control-plane triggering overheads (Fig. 2(c)).

// Span is one function instance's lifetime within a request.
type Span struct {
	Fn        string
	Idx       int
	Triggered time.Duration
	Started   time.Duration
	Finished  time.Duration
}

// Spans extracts per-instance spans from a request's stages (the Fig. 13
// timeline).
func Spans(stages []Stage) []Span {
	type key struct {
		fn  string
		idx int
	}
	m := map[key]*Span{}
	var order []key
	for _, st := range stages {
		if st.Kind != InstanceTriggered && st.Kind != InstanceStarted && st.Kind != InstanceFinished {
			continue
		}
		k := key{st.Fn, st.Idx}
		s, ok := m[k]
		if !ok {
			s = &Span{Fn: st.Fn, Idx: st.Idx}
			m[k] = s
			order = append(order, k)
		}
		switch st.Kind {
		case InstanceTriggered:
			s.Triggered = st.At
		case InstanceStarted:
			s.Started = st.At
		case InstanceFinished:
			s.Finished = st.At
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

// TriggerGaps pairs each function's first trigger with the finish time of
// its latest-finishing predecessor instance. preds maps a function to its
// predecessor functions.
func TriggerGaps(stages []Stage, preds map[string][]string) []TriggerGap {
	spans := Spans(stages)
	finishedAt := map[string]time.Duration{}
	triggeredAt := map[string]time.Duration{}
	for _, s := range spans {
		if s.Finished > finishedAt[s.Fn] {
			finishedAt[s.Fn] = s.Finished
		}
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
