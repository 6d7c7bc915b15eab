package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wmm"
)

// newUntracedWCSystem is newWCSystem with sampling off, for storms that
// would only churn the span ring.
func newUntracedWCSystem(t testing.TB, nodes int, cfgMut func(*Config)) *System {
	t.Helper()
	return newWCSystem(t, nodes, func(cfg *Config) {
		cfg.Obs = ObsConfig{}
		if cfgMut != nil {
			cfgMut(cfg)
		}
	})
}

// runWC runs one wordcount request over text to completion.
func runWC(t *testing.T, sys *System, text string) *Invocation {
	t.Helper()
	inv, err := sys.Invoke(map[string][]byte{"start.src": []byte(text)})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	return inv
}

// wcStormStats is what a 200-request runWCStorm leaves in the merged sink
// counters (PeakMemBytes zeroed: it depends on goroutine interleaving), as
// recorded from the per-item DLU daemon before it was deleted: six puts per
// request (three FOREACH shards, three MERGE results), each consumed from
// memory and proactively released.
var wcStormStats = wmm.Stats{Puts: 1200, MemHits: 1200, ProactiveReleases: 1200}

// runWCStorm drives n concurrent wordcount requests and returns the merged
// sink stats after every request completed.
func runWCStorm(t *testing.T, sys *System, n int) wmm.Stats {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	outs := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inv, err := sys.Invoke(map[string][]byte{
				"start.src": []byte(strings.Repeat(fmt.Sprintf("w%d ", i), 6)),
			})
			if err != nil {
				errs[i] = err
				return
			}
			if err := inv.Wait(); err != nil {
				errs[i] = err
				return
			}
			outs[i], _ = inv.OutputBytes("out")
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("req %d: %v", i, errs[i])
		}
		if want := fmt.Sprintf("w%d 6\n", i); string(outs[i]) != want {
			t.Fatalf("req %d out = %q, want %q", i, outs[i], want)
		}
	}
	return sys.SinkStats()
}

// TestBatchedSinkStateEquivalence holds the edge-batched daemon to the
// per-item engine's recorded sink state: outputs (runWCStorm checks each),
// cumulative sink counters and post-completion residue must match exactly —
// batching may only change how many lock acquisitions the same puts cost,
// never what was put.
func TestBatchedSinkStateEquivalence(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			sys := newUntracedWCSystem(t, nodes, nil)
			stats := runWCStorm(t, sys, 200)
			sys.Shutdown()
			stats.PeakMemBytes = 0
			if stats != wcStormStats {
				t.Fatalf("sink stats diverged from the per-item record:\ngot  %+v\nwant %+v", stats, wcStormStats)
			}
			if got := sys.PendingInvocations(); got != 0 {
				t.Fatalf("engine left %d pending invocations", got)
			}
		})
	}
}

// TestBatchFlushOnIdle pins the flush-on-idle rule: a lone request never
// waits for peers to fill a batch.
func TestBatchFlushOnIdle(t *testing.T) {
	sys := newUntracedWCSystem(t, 2, nil)
	defer sys.Shutdown()
	start := time.Now()
	inv := runWC(t, sys, "x y x")
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("lone request took %v; batching must flush on idle", elapsed)
	}
	if out, _ := inv.OutputBytes("out"); string(out) != "x 2\ny 1\n" {
		t.Fatal("lone batched request produced wrong output")
	}
}

// TestBatchedShutdownVsDrainStorm races Shutdown against invokers of a
// fan-out workflow: a half-drained batch must be shipped (closed queues
// still deliver buffered tasks), refused late Puts must unwind cleanly, and
// the run must be race-free (the CI race job runs this at -count=2). As in
// TestShutdownDuringInvokeStorm, requests abandoned mid-flight stay open;
// Shutdown itself guarantees quiescence.
func TestBatchedShutdownVsDrainStorm(t *testing.T) {
	for round := 0; round < 4; round++ {
		sys := newUntracedWCSystem(t, 2, nil)
		invs := stormUntilShutdown(sys, 64*(round+1), func(g, i int) map[string][]byte {
			return map[string][]byte{"start.src": []byte(fmt.Sprintf("a%d b%d", g, i))}
		})
		// Completed requests resolved with the right answer; abandoned ones
		// stay open without hanging the engine (Shutdown already drained bg).
		done := completedOf(invs)
		for _, inv := range done {
			if inv.Err() != nil {
				continue
			}
			if out, ok := inv.OutputBytes("out"); !ok || len(out) == 0 {
				t.Fatal("completed request lost its output")
			}
		}
		t.Logf("round %d: %d/%d completed before shutdown", round, len(done), len(invs))
	}
}

// TestSpanRecordsPerItemStagesFromBatches: a sampled span selects no DLU
// path. A request whose FOREACH emits three items still ships them as one
// edge batch (the batch-size histogram grows), and the span gets one
// DataSent and one DataArrived stage per item, the arrivals addressed per
// item, every item sent before it arrived.
func TestSpanRecordsPerItemStagesFromBatches(t *testing.T) {
	batches := obs.Default().Histogram("core_dlu_batch_items")
	before := batches.Snapshot().Count
	sys := newWCSystem(t, 2, nil)
	defer sys.Shutdown()
	inv := runWC(t, sys, "x yy x")
	if batches.Snapshot().Count <= before {
		t.Fatal("core_dlu_batch_items did not grow: tracing must not disable batching")
	}
	var got []string
	for _, st := range sys.ring.Stages(inv.ReqID()) {
		if st.Kind == obs.DataSent && st.Fn == "start" || st.Kind == obs.DataArrived && st.Fn == "count" {
			got = append(got, fmt.Sprintf("%s %s[%d]", st.Kind, st.Fn, st.Idx))
		}
	}
	want := []string{
		"data-sent start[0]", "data-sent start[0]", "data-sent start[0]",
		"data-arrived count[0]", "data-arrived count[1]", "data-arrived count[2]",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("FOREACH edge recorded\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
