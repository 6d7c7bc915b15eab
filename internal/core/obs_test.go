package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/obs"
)

// TestBatchedEquivalenceWithSampling: sampled request tracing changes
// nothing about what ships. The storm must leave the per-item engine's
// recorded sink state, the daemon must have observed its batches (the DLU
// batch-size histogram grows), and the span ring must hold sampled requests.
func TestBatchedEquivalenceWithSampling(t *testing.T) {
	batches := obs.Default().Histogram("core_dlu_batch_items")
	before := batches.Snapshot().Count
	sys := newUntracedWCSystem(t, 3, func(cfg *Config) { cfg.Obs = ObsConfig{SampleEvery: 4} })
	stats := runWCStorm(t, sys, 200)
	if batches.Snapshot().Count <= before {
		t.Fatal("batch-size histogram did not grow under sampling")
	}
	if sys.ring == nil || len(sys.ring.Snapshot()) == 0 {
		t.Fatal("span ring empty: sampling must record spans")
	}
	sys.Shutdown()
	stats.PeakMemBytes = 0
	if stats != wcStormStats {
		t.Fatalf("sink stats diverged from the per-item record:\ngot  %+v\nwant %+v", stats, wcStormStats)
	}
}

// TestSampledSpansRecordStages drives sampled requests through the engine
// and checks the span ring holds correlated per-request stage sequences:
// arrival, instance lifecycle, data movement, completion — and that every
// instance that started was triggered first, entry or not.
func TestSampledSpansRecordStages(t *testing.T) {
	sys := newUntracedWCSystem(t, 2, func(cfg *Config) {
		cfg.Obs = ObsConfig{SampleEvery: 1}
	})
	defer sys.Shutdown()
	for i := 0; i < 8; i++ {
		runWC(t, sys, fmt.Sprintf("w%d x", i))
	}
	spans := sys.ring.Snapshot()
	if len(spans) != 8 {
		t.Fatalf("ring holds %d spans, want 8", len(spans))
	}
	for _, sp := range spans {
		if sp.TraceID == "" || sp.TraceID == "0000000000000000" {
			t.Fatalf("span %s has no trace id", sp.ReqID)
		}
		stages := make(map[string]bool, len(sp.Stages))
		triggered := map[dataflow.InstanceKey]bool{}
		for _, st := range sp.Stages {
			stages[st.Kind] = true
			key := dataflow.InstanceKey{Fn: st.Fn, Idx: st.Idx}
			switch st.Kind {
			case "triggered":
				triggered[key] = true
			case "started":
				if !triggered[key] {
					t.Fatalf("span %s: %s started with no triggered stage before it (has %v)", sp.ReqID, key, sp.Stages)
				}
			}
		}
		for _, want := range []string{"req-arrived", "triggered", "started", "finished", "data-sent", "data-arrived", "req-completed"} {
			if !stages[want] {
				t.Fatalf("span %s missing stage %q (has %v)", sp.ReqID, want, sp.Stages)
			}
		}
	}
}

// TestUnsampledRequestsCarryNoSpan pins the 1-in-N contract: with
// SampleEvery=4 exactly the requests whose number divides by four land in
// the ring. The expectation is counted from the minted IDs — numbering is
// not dense (a test goroutine that changes P between requests, or a race
// build's sync.Pool, abandons the rest of its ID block).
func TestUnsampledRequestsCarryNoSpan(t *testing.T) {
	sys := newUntracedWCSystem(t, 1, func(cfg *Config) {
		cfg.Obs = ObsConfig{SampleEvery: 4}
	})
	defer sys.Shutdown()
	want := 0
	for i := 0; i < 20; i++ {
		inv := runWC(t, sys, "a b")
		if n, _ := strconv.Atoi(strings.TrimPrefix(inv.ReqID(), "req-")); n%4 == 0 {
			want++
		}
	}
	if got := len(sys.ring.Snapshot()); got != want || got == 20 {
		t.Fatalf("ring holds %d spans after 20 requests at 1-in-4, want %d", got, want)
	}
}

// TestRejectionsShutdownAndInvalid: a refused invocation is counted by cause.
// Input the tracker rejects registers the request and tears it down at once;
// an Invoke after Shutdown is refused before anything is registered.
func TestRejectionsShutdownAndInvalid(t *testing.T) {
	sys := newChainSystem(t, 2, nil, nil)
	shutdown0, invalid0 := obsRejShutdown.Load(), obsRejInvalid.Load()
	if _, err := sys.Invoke(map[string][]byte{"nope.in": []byte("x")}); err == nil {
		t.Fatal("invalid input admitted")
	}
	if got := obsRejInvalid.Load() - invalid0; got != 1 {
		t.Fatalf("invalid rejections = %d, want 1", got)
	}
	if got := sys.PendingInvocations(); got != 0 {
		t.Fatalf("rejected invocation leaked: %d pending", got)
	}
	sys.Shutdown()
	if _, err := sys.Invoke(map[string][]byte{"a.in": []byte("x")}); err == nil {
		t.Fatal("post-shutdown Invoke admitted")
	}
	if got := obsRejShutdown.Load() - shutdown0; got != 1 {
		t.Fatalf("shutdown rejections = %d, want 1", got)
	}
	if got := obsRejShutdown.Load() - shutdown0 + obsRejInvalid.Load() - invalid0; got != 2 {
		t.Fatalf("rejections = %d, want 2", got)
	}
}
