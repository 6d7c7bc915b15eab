package obs

import (
	"strings"
	"testing"
	"time"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// wcStages records a wc-like request "r" (start, one early-triggered count,
// merge) out of time order, beside a second request, and returns r's
// stages as the ring hands them out.
func wcStages(t *testing.T) []Stage {
	t.Helper()
	g := NewSpanRing(4)
	r := g.Start(g.NewTraceID(), "r")
	r.Record(InstanceTriggered, 0, "start", 0)
	r.Record(InstanceStarted, sec(0.01), "start", 0)
	r.Record(InstanceFinished, sec(0.03), "start", 0)
	r.Record(InstanceTriggered, sec(0.02), "count", 0) // early!
	r.Record(InstanceStarted, sec(0.05), "count", 0)
	r.Record(InstanceFinished, sec(0.20), "count", 0)
	r.Record(InstanceTriggered, sec(0.22), "merge", 0)
	r.Record(InstanceStarted, sec(0.23), "merge", 0)
	r.Record(InstanceFinished, sec(0.30), "merge", 0)
	g.Start(g.NewTraceID(), "other").Record(InstanceTriggered, sec(0.01), "start", 0)
	return g.Stages("r")
}

func TestRingStagesFiltersAndSorts(t *testing.T) {
	stages := wcStages(t)
	if len(stages) != 9 {
		t.Fatalf("stages = %d, want 9", len(stages))
	}
	for i := 1; i < len(stages); i++ {
		if stages[i].At < stages[i-1].At {
			t.Fatal("not sorted by time")
		}
	}
	var ring *SpanRing
	if ring.Stages("r") != nil || NewSpanRing(1).Stages("r") != nil {
		t.Fatal("a request with no resident record must have no stages")
	}
}

func TestSpansExtraction(t *testing.T) {
	spans := Spans(wcStages(t))
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
	preds := map[string][]string{
		"count": {"start"},
		"merge": {"count"},
	}
	gaps := TriggerGaps(wcStages(t), preds)
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
	gaps := TriggerGaps(wcStages(t), map[string][]string{
		"ghost": {"start"},
		"count": {"never-ran"},
	})
	if len(gaps) != 0 {
		t.Fatalf("gaps = %v, want none", gaps)
	}
}

func TestFormatTimeline(t *testing.T) {
	text := FormatTimeline(Spans(wcStages(t)))
	if !strings.Contains(text, "start") || !strings.Contains(text, "merge") {
		t.Fatalf("timeline missing functions:\n%s", text)
	}
	if len(strings.Split(strings.TrimSpace(text), "\n")) != 3 {
		t.Fatalf("timeline lines:\n%s", text)
	}
}

func TestStageKindString(t *testing.T) {
	if ReqArrived.String() != "req-arrived" || ReqCompleted.String() != "req-completed" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(StageKind(99).String(), "99") {
		t.Fatal("unknown kind formatting")
	}
}

// TestSpanRecConcurrentRecord: two writers append to one record at once
// (the engine's FLU and DLU goroutines and the TCP server do); every stage
// is kept.
func TestSpanRecConcurrentRecord(t *testing.T) {
	g := NewSpanRing(1)
	rec := g.Start(g.NewTraceID(), "r")
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			rec.Record(DataSent, time.Duration(i), "a", 0)
		}
		close(done)
	}()
	for i := 0; i < 100; i++ {
		g.Observe(rec.ID(), "r", DataArrived, time.Duration(i), "b", 0)
	}
	<-done
	if n := len(g.Stages("r")); n != 200 {
		t.Fatalf("len = %d", n)
	}
}

func TestGanttRendersAllSpans(t *testing.T) {
	spans := Spans(wcStages(t))
	out := Gantt(spans, 40)
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
	if out := Gantt(spans, 1); !strings.Contains(out, "#") {
		t.Fatal("tiny width should clamp, not break")
	}
}
