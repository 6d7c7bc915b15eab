package simcluster

import (
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// sharedInputProfile fans split out FOREACH to three work instances and
// hands every one of them the same cfg over a NORMAL edge: work's shared
// input, which no single instance fetches.
func sharedInputProfile(t *testing.T) *workloads.Profile {
	t.Helper()
	wf, err := workflow.ParseDSLString(`
workflow shared
function split
  input src from $USER
  output parts type FOREACH to work.part
  output cfg to work.cfg
function work
  input part
  input cfg
  output out type MERGE to join.parts
function join
  input parts type LIST
  output result to $USER
`)
	if err != nil {
		t.Fatal(err)
	}
	return &workloads.Profile{
		Name:     "shared",
		Workflow: wf,
		ExecRef: map[string]time.Duration{
			"split": 10 * time.Millisecond, "work": 50 * time.Millisecond, "join": 10 * time.Millisecond,
		},
		OutSize: map[string]int64{
			"split.parts": 1 << 10, "split.cfg": 4 << 10, "work.out": 256, "join.result": 64,
		},
		Fanout:    3,
		InputSize: 1 << 10,
	}
}

// TestFannedSharedInputReleasedAtCompletion: a FOREACH-fanned function's
// shared input stays in its sink after work[0] fetched — every instance
// reads it — and the request's release reclaims it at completion, as the
// engine's teardown does.
func TestFannedSharedInputReleasedAtCompletion(t *testing.T) {
	prof := sharedInputProfile(t)
	cfg := Config{Kind: DataFlower, Profile: prof}
	// The run is deterministic: a first one finds when work[0] finished.
	var fetched time.Duration = -1
	for _, st := range New(cfg).RunOne().Trace {
		if st.Kind == obs.InstanceFinished && st.Fn == "work" && st.Idx == 0 {
			fetched = st.At
		}
	}
	if fetched < 0 {
		t.Fatal("work[0] never finished")
	}
	shared := dfSinkKey("r1", dataflow.InstanceKey{Fn: "work"}, "cfg", "split", 0, "cfg")

	s := New(cfg)
	resident := false
	s.env.ScheduleAt(fetched, func() {
		_, _, resident = s.replicas["work"][0].sink.Get(s.env.Now(), shared)
	})
	if res := s.RunOne(); res.Completed != 1 {
		t.Fatalf("completed %d of 1", res.Completed)
	}
	if !resident {
		t.Fatal("work's shared input was gone once work[0] had fetched")
	}

	s = New(cfg)
	s.RunOne()
	if _, _, ok := s.replicas["work"][0].sink.Get(s.env.Now(), shared); ok {
		t.Fatal("work's shared input outlived the request")
	}
}
