package simcluster

import (
	"testing"
	"time"

	"repro/internal/cluster"
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
	// The tracker routes the shared input to every instance (BroadcastIdx).
	shared := cluster.SinkKey("r1", dataflow.Item{From: dataflow.InstanceKey{Fn: "split"}, Output: "cfg",
		To: dataflow.InstanceKey{Fn: "work", Idx: dataflow.BroadcastIdx}, Input: "cfg"})

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

// TestSinkConsumesWhatLanded: in fault-free DataFlower runs each instance
// reads exactly the data the arrival log chains to it. Every datum landed in
// a sink is read once and no read misses, except a FOREACH-fanned function's
// shared inputs, which none of its instances fetches.
func TestSinkConsumesWhatLanded(t *testing.T) {
	const requests = 8
	for _, prof := range append(workloads.All(), sharedInputProfile(t)) {
		t.Run(prof.Name, func(t *testing.T) {
			s := New(Config{Kind: DataFlower, Profile: prof})
			res := s.RunOpenLoop(60, requests)
			if res.Completed != requests || res.Failed != 0 {
				t.Fatalf("completed %d, failed %d of %d", res.Completed, res.Failed, requests)
			}
			wf := prof.Workflow
			var shared int64 // per request
			for _, e := range wf.Edges() {
				if f, ok := wf.Function(e.To); ok && e.Kind != workflow.Foreach && wf.Plan().Fns[f.Index()].Fanned {
					shared += int64(s.instancesOf(e.From))
				}
			}
			st := res.SinkStats
			if st.Misses != 0 || st.MemHits+st.DiskHits != st.Puts-requests*shared {
				t.Fatalf("%+v: want no misses and %d puts - %d shared read", st, st.Puts, requests*shared)
			}
		})
	}
}
