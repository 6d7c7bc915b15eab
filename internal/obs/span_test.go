package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSpanRingEviction(t *testing.T) {
	g := NewSpanRing(2)
	id1, id2, id3 := g.NewTraceID(), g.NewTraceID(), g.NewTraceID()
	if id1 == 0 || id1 == id2 || id2 == id3 {
		t.Fatal("trace ids must be nonzero and distinct")
	}
	g.Start(id1, "req-1").Record(ReqArrived, 10, "", 0)
	g.Start(id2, "req-2")
	if len(g.recs) != 2 || g.Evicted() != 0 {
		t.Fatalf("len=%d evicted=%d", len(g.recs), g.Evicted())
	}
	g.Start(id3, "req-3")
	if len(g.recs) != 2 || g.Evicted() != 1 {
		t.Fatalf("after eviction: len=%d evicted=%d", len(g.recs), g.Evicted())
	}
	snap := g.Snapshot()
	if len(snap) != 2 || snap[0].ReqID != "req-2" || snap[1].ReqID != "req-3" {
		t.Fatalf("snapshot order %+v", snap)
	}
	// The evicted record must no longer be reachable by id.
	g.Observe(id1, "req-1", ReqCompleted, 20, "", 0)
	if g.Evicted() != 2 {
		t.Fatal("Observe of an evicted id should start a fresh record, evicting again")
	}
}

func TestSpanRecNilSafe(t *testing.T) {
	var rec *SpanRec
	rec.Record(ReqArrived, 1, "f", 0) // must not panic
	if rec.ID() != 0 {
		t.Fatal("nil record must report trace id 0")
	}
	var ring *SpanRing
	ring.Observe(1, "r", ReqArrived, 1, "", 0) // must not panic
	if ring.Snapshot() != nil {
		t.Fatal("nil ring snapshot must be nil")
	}
}

func TestSpanRingObserveMergesById(t *testing.T) {
	g := NewSpanRing(4)
	g.SetOrigin("worker:w1")
	id := g.NewTraceID()
	g.Observe(id, "req-9", DataArrived, 100*time.Microsecond, "b", 1)
	g.Observe(id, "req-9", DataArrived, 200*time.Microsecond, "b", 2)
	g.Observe(0, "req-9", DataArrived, 1, "b", 0) // unsampled: ignored
	if len(g.recs) != 1 {
		t.Fatalf("len=%d, want 1", len(g.recs))
	}
	snap := g.Snapshot()
	if len(snap[0].Stages) != 2 || snap[0].Stages[0].Kind != DataArrived.String() {
		t.Fatalf("stages %+v", snap[0].Stages)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("transport_frames_sent_total").Add(0, 7)
	ring := NewSpanRing(8)
	ring.SetOrigin("coord")
	id := ring.NewTraceID()
	ring.Start(id, "req-1").Record(ReqArrived, 5, "", 0)
	r.SetRing(ring)

	srv := httptest.NewServer(Handler(r, HandlerOpts{
		Health: func() any { return map[string]string{"status": "ok", "role": "coord"} },
	}))
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}

	if out := get("/metrics"); !strings.Contains(out, "transport_frames_sent_total 7") {
		t.Errorf("/metrics missing series:\n%s", out)
	}
	var reqs requestsBody
	if err := json.Unmarshal([]byte(get("/debug/requests")), &reqs); err != nil {
		t.Fatal(err)
	}
	if reqs.Origin != "coord" || len(reqs.Spans) != 1 || reqs.Spans[0].ReqID != "req-1" {
		t.Errorf("/debug/requests %+v", reqs)
	}
	if out := get("/debug/health"); !strings.Contains(out, `"role": "coord"`) {
		t.Errorf("/debug/health %s", out)
	}
}
