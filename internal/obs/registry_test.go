package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a_total")
	c2 := r.Counter("a_total")
	if c1 != c2 {
		t.Fatal("same name, different counters")
	}
	c1.Add(3, 5)
	c1.Inc(100) // stripes mask, any value is safe
	if got := r.Counter("a_total").Load(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name, different histograms")
	}
}

func TestRegistryConcurrentLookup(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared_total").Inc(uint32(j))
				r.Histogram("lat").Observe(uint32(j), int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Load(); got != 8*500 {
		t.Fatalf("counter = %d", got)
	}
	if got := r.Histogram("lat").Snapshot().Count; got != 8*500 {
		t.Fatalf("histogram count = %d", got)
	}
}

// The engine embeds zero-value Counters as up/down tallies (in-flight
// instances, pending work), so a Counter must sum every lane — masked
// out-of-range stripes included — and take negative deltas.
func TestCounterSumsAcrossLanes(t *testing.T) {
	var c Counter
	for stripe := uint32(0); stripe < 3*NumStripes; stripe++ {
		c.Add(stripe, 2)
	}
	c.Add(0, -5)
	if got, want := c.Load(), int64(3*NumStripes*2-5); got != want {
		t.Fatalf("Load() = %d, want %d", got, want)
	}
}

func TestCounterConcurrentBalancedAddsCancel(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(uint32(g), 1)
				c.Add(uint32(g+3), -1) // drain on a different lane
			}
		}(g)
	}
	wg.Wait()
	if got := c.Load(); got != 0 {
		t.Fatalf("balanced adds left Load() = %d", got)
	}
}

func TestSnapshotAndGaugeFuncs(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(0, 2)
	r.SetGaugeFunc("fn_g", func() int64 { return 42 })
	r.Histogram("h_ns").Observe(0, 100)

	s := r.Snapshot()
	if s.Counters["c_total"] != 2 || s.Gauges["fn_g"] != 42 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Histograms["h_ns"].Count != 1 {
		t.Fatalf("hist snapshot %+v", s.Histograms["h_ns"])
	}

	// Replacement and removal.
	r.SetGaugeFunc("fn_g", func() int64 { return 1 })
	if r.Snapshot().Gauges["fn_g"] != 1 {
		t.Fatal("gauge func not replaced")
	}
	r.SetGaugeFunc("fn_g", nil)
	if _, ok := r.Snapshot().Gauges["fn_g"]; ok {
		t.Fatal("gauge func not removed")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`req_total{tenant="a"}`).Add(0, 3)
	r.Counter(`req_total{tenant="b"}`).Add(0, 4)
	r.SetGaugeFunc("mem_bytes", func() int64 { return 100 })
	h := r.Histogram("lat_ns")
	h.Observe(0, 1) // bucket 1, le 1
	h.Observe(0, 3) // bucket 2, le 3

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{tenant="a"} 3`,
		`req_total{tenant="b"} 4`,
		"# TYPE mem_bytes gauge",
		"mem_bytes 100",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="1"} 1`,
		`lat_ns_bucket{le="3"} 2`,
		`lat_ns_bucket{le="+Inf"} 2`,
		"lat_ns_sum 4",
		"lat_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE req_total counter") != 1 {
		t.Error("TYPE line repeated for labeled series")
	}
}
