package trace

import (
	"strings"
	"testing"
	"time"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func buildLog() *Log {
	l := NewLog()
	// wc-like: start, two counts (one early-triggered), merge.
	l.Append(Event{At: 0, Kind: InstanceTriggered, ReqID: "r", Fn: "start", Idx: 0})
	l.Append(Event{At: sec(0.01), Kind: InstanceStarted, ReqID: "r", Fn: "start", Idx: 0})
	l.Append(Event{At: sec(0.03), Kind: InstanceFinished, ReqID: "r", Fn: "start", Idx: 0})
	l.Append(Event{At: sec(0.02), Kind: InstanceTriggered, ReqID: "r", Fn: "count", Idx: 0}) // early!
	l.Append(Event{At: sec(0.05), Kind: InstanceStarted, ReqID: "r", Fn: "count", Idx: 0})
	l.Append(Event{At: sec(0.20), Kind: InstanceFinished, ReqID: "r", Fn: "count", Idx: 0})
	l.Append(Event{At: sec(0.22), Kind: InstanceTriggered, ReqID: "r", Fn: "merge", Idx: 0})
	l.Append(Event{At: sec(0.23), Kind: InstanceStarted, ReqID: "r", Fn: "merge", Idx: 0})
	l.Append(Event{At: sec(0.30), Kind: InstanceFinished, ReqID: "r", Fn: "merge", Idx: 0})
	// A different request interleaved.
	l.Append(Event{At: sec(0.01), Kind: InstanceTriggered, ReqID: "other", Fn: "start", Idx: 0})
	return l
}

func TestForRequestFiltersAndSorts(t *testing.T) {
	l := buildLog()
	evs := l.ForRequest("r")
	if len(evs) != 9 {
		t.Fatalf("events = %d, want 9", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("not sorted by time")
		}
	}
}

func TestSpansExtraction(t *testing.T) {
	l := buildLog()
	spans := l.Spans("r")
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].Fn != "start" || spans[1].Fn != "count" || spans[2].Fn != "merge" {
		t.Fatalf("order: %v", spans)
	}
	if spans[1].Triggered != sec(0.02) || spans[1].Finished != sec(0.20) {
		t.Fatalf("count span: %+v", spans[1])
	}
}

func TestTriggerGapsDetectEarlyTriggering(t *testing.T) {
	l := buildLog()
	preds := map[string][]string{
		"count": {"start"},
		"merge": {"count"},
	}
	gaps := l.TriggerGaps("r", preds)
	if len(gaps) != 2 {
		t.Fatalf("gaps = %v", gaps)
	}
	byTo := map[string]TriggerGap{}
	for _, g := range gaps {
		byTo[g.To] = g
	}
	// count was triggered at 0.02 while start finished at 0.03 -> negative gap.
	if byTo["count"].Gap >= 0 {
		t.Fatalf("count gap = %v, want negative (early trigger)", byTo["count"].Gap)
	}
	// merge triggered 20 ms after count finished.
	if byTo["merge"].Gap != sec(0.02) {
		t.Fatalf("merge gap = %v, want 20ms", byTo["merge"].Gap)
	}
}

func TestTriggerGapsMissingFunctions(t *testing.T) {
	l := buildLog()
	gaps := l.TriggerGaps("r", map[string][]string{
		"ghost": {"start"},
		"count": {"never-ran"},
	})
	if len(gaps) != 0 {
		t.Fatalf("gaps = %v, want none", gaps)
	}
}

func TestFormatTimeline(t *testing.T) {
	l := buildLog()
	text := FormatTimeline(l.Spans("r"))
	if !strings.Contains(text, "start") || !strings.Contains(text, "merge") {
		t.Fatalf("timeline missing functions:\n%s", text)
	}
	if len(strings.Split(strings.TrimSpace(text), "\n")) != 3 {
		t.Fatalf("timeline lines:\n%s", text)
	}
}

func TestKindString(t *testing.T) {
	if ReqArrived.String() != "req-arrived" || ReqCompleted.String() != "req-completed" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind formatting")
	}
}

func TestLenAndConcurrency(t *testing.T) {
	l := NewLog()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			l.Append(Event{At: time.Duration(i), Kind: DataSent, ReqID: "r"})
		}
		close(done)
	}()
	for i := 0; i < 100; i++ {
		l.Append(Event{At: time.Duration(i), Kind: DataArrived, ReqID: "r"})
	}
	<-done
	if n := len(l.Events()); n != 200 {
		t.Fatalf("len = %d", n)
	}
}

func TestGanttRendersAllSpans(t *testing.T) {
	l := buildLog()
	out := Gantt(l.Spans("r"), 40)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // 3 spans + axis
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "#") {
		t.Fatal("no execution bars rendered")
	}
	if !strings.Contains(lines[0], "start") || !strings.Contains(lines[2], "merge") {
		t.Fatalf("span rows missing:\n%s", out)
	}
	// Degenerate inputs.
	if Gantt(nil, 40) != "" {
		t.Fatal("empty spans should render empty")
	}
	if out := Gantt(l.Spans("r"), 1); !strings.Contains(out, "#") {
		t.Fatal("tiny width should clamp, not break")
	}
}
