package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

// TestMain lets the test binary be re-executed as a worker, the way the
// benchmark binary is.
func TestMain(m *testing.M) {
	maybeWorker()
	os.Exit(m.Run())
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := []int32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int32
	}{{0.5, 50}, {0.99, 100}, {0.9, 90}, {0.91, 100}, {0.1, 10}, {0.0001, 10}, {1, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]int32{}, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	// 1000 samples leave exactly ten beyond p99.
	big := make([]int32, 1000)
	for i := range big {
		big[i] = int32(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestLatencyQuantilesPoolTheClientsThatReturned(t *testing.T) {
	a := &loadClient{lat: []int32{10, 30, 500, 700}}
	b := &loadClient{lat: []int32{20, 100, 900}}
	c := &loadClient{lat: []int32{5000}} // never returned
	a.exited.Store(true)
	b.exited.Store(true)
	p50, p99, n := latencyQuantiles([]*loadClient{a, b, c})
	if n != 7 || p50 != 100 || p99 != 900 {
		t.Errorf("%d samples: p50 %v p99 %v, want 7, 100, 900", n, p50, p99)
	}
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	var h hist
	var exact []int64
	for v := int64(1); v < 5e9; v = v*21/20 + 1 {
		h.add(v)
		exact = append(exact, v)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		want := float64(percentile(exact, q))
		if got := h.quantile(q); math.Abs(got-want) > 0.01*want+1 {
			t.Errorf("quantile(%v) = %v, exact %v", q, got, want)
		}
	}
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<40 + 12345} {
		if i := histBucket(v); i < 0 || i >= histBuckets || math.Abs(histValue(i)-float64(v)) > 0.01*float64(v)+1 {
			t.Errorf("value %d lands in bucket %d with midpoint %v", v, i, histValue(i))
		}
	}
	var empty hist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestSpanGap(t *testing.T) {
	if got := spanGap(100, 10, 20, 30, 40); got != 0 {
		t.Errorf("tiling spans leave %d, want 0", got)
	}
	if got := spanGap(100, 10, 20); got != 70 {
		t.Errorf("gap = %d, want 70", got)
	}
	// A negative span is an overlap: it must not cancel uncovered time.
	if got := spanGap(100, 60, -20, 50); got != -10 {
		t.Errorf("gap = %d, want -10", got)
	}
}

// stampInst fills one instance's four timestamps.
func stampInst(s *instStamp, start, inputRet, putStart, putRet int64) {
	s.start.Store(start)
	s.inputRet.Store(inputRet)
	s.putStart.Store(putStart)
	s.putRet.Store(putRet)
}

func TestFoldTilesAChainRequest(t *testing.T) {
	w := findWorkload("chain-serial")
	tr := newTracer(w)
	seq := seqOf(0, 1)
	rec := tr.begin(seq)
	if tr.stamp(seq, 0) == nil || tr.stamp(seqOf(0, 1+recRing), 0) != nil {
		t.Fatal("stamp must find the current request's record and refuse a later one's")
	}
	// invoke 1000→1300, a runs 2000..2600, b runs 4000..4700, wait returns 6000.
	stampInst(&rec.inst[0], 2000, 2100, 2200, 2600)
	stampInst(&rec.inst[1], 4000, 4050, 4400, 4700)
	var ss spanSet
	ss.fold(w, rec, 1000, 1300, 6000)
	for kind, want := range map[int]float64{
		spInvoke: 300, spEntry: 1000, spEdge: 1400, spComplete: 1300, spLatency: 5000, spGap: 0,
	} {
		if got := ss[kind].quantile(0.5); math.Abs(got-want) > 0.01*want {
			t.Errorf("span %d = %v, want %v", kind, got, want)
		}
	}
	if ss[spPut].n != 2 || ss[spInput].n != 2 || ss[spSelf].n != 2 || ss[spSkew].n != 0 {
		t.Errorf("per-instance spans counted %d/%d/%d, skew %d", ss[spPut].n, ss[spInput].n, ss[spSelf].n, ss[spSkew].n)
	}

	// b started before a's Put returned: the overlap shows as a gap, and a
	// Put whose return was never stamped reads as returning with the request.
	rec = tr.begin(seqOf(0, 2))
	stampInst(&rec.inst[0], 2000, 2100, 2200, 2600)
	stampInst(&rec.inst[1], 2400, 2450, 2500, 0)
	ss = spanSet{}
	ss.fold(w, rec, 1000, 1300, 3000)
	if got := ss[spGap].quantile(0.5); math.Abs(got-200) > 2 {
		t.Errorf("overlap gap = %v, want 200", got)
	}
	if got := ss[spComplete].quantile(0.5); got != 0 {
		t.Errorf("complete = %v, want 0", got)
	}
}

func TestFoldPicksTheLastFanInArrival(t *testing.T) {
	w := findWorkload("fan-tcp")
	tr := newTracer(w)
	rec := tr.begin(seqOf(3, 7))
	stampInst(&rec.inst[0], 100, 110, 120, 200)
	for i := 1; i <= fanParts; i++ {
		at := int64(200 + 100*i)
		stampInst(&rec.inst[i], at, at+10, at+20, at+50)
	}
	stampInst(&rec.inst[1+fanParts], 1200, 1210, 1220, 1300)
	var ss spanSet
	ss.fold(w, rec, 0, 50, 1400)
	if ss[spEdge].n != fanParts+1 {
		t.Errorf("edges = %d, want %d", ss[spEdge].n, fanParts+1)
	}
	if got := ss[spSkew].quantile(0.5); math.Abs(got-700) > 7 {
		t.Errorf("fan-in skew = %v, want 700", got)
	}
	// merge is gated by work[8]'s Put return at 1050.
	if got := ss[spEdge].quantile(1); math.Abs(got-800) > 8 {
		t.Errorf("longest edge = %v, want 800", got)
	}
	if got := ss[spGap].quantile(1); got != 0 {
		t.Errorf("gap = %v, want 0", got)
	}
}

func TestVerifyRejectsForeignAndDamagedOutputs(t *testing.T) {
	for _, w := range workloads {
		tmpl := w.template(7)
		ref := w.reference(tmpl)
		seq := seqOf(2, 99)
		var out []byte
		if w.fns[len(w.fns)-1].kind == kindEcho {
			out = slices.Clone(tmpl)
			w.stamp(out, seq)
		} else {
			out = result16(seq, ref+seq*uint64(w.parts*(w.parts+1)/2))
		}
		if !w.verify(out, tmpl, seq, ref) {
			t.Errorf("%s: the reference output does not verify", w.name)
		}
		if w.verify(out, tmpl, seq+1, ref) {
			t.Errorf("%s: another request's output verifies", w.name)
		}
		out[len(out)-1] ^= 1
		if w.verify(out, tmpl, seq, ref) {
			t.Errorf("%s: a damaged output verifies", w.name)
		}
		if w.verify(nil, tmpl, seq, ref) {
			t.Errorf("%s: a missing output verifies", w.name)
		}
	}
}

// testDoc is an untraced document in which every end-to-end metric of every
// workload reads 100.
func testDoc() *document {
	d := &document{Fingerprint: fingerprint{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go", Kernel: "k", SleepFloorUS: 1000, WindowS: 20}, Workloads: map[string]*result{}}
	for _, w := range workloads {
		r := &result{Correct: true, Attempted: 10, Metrics: map[string]metricValue{}}
		for _, def := range endToEnd {
			r.set(def.Name, 100)
		}
		d.Workloads[w.name] = r
	}
	return d
}

// worsened is testDoc with def on workload wl worse by share.
func worsened(wl string, def metricDef, share float64) *document {
	d := testDoc()
	if def.Better == higher {
		share = -share
	}
	d.Workloads[wl].set(def.Name, 100*(1+share))
	return d
}

func TestCompareHoldsEveryPairingToItsLimit(t *testing.T) {
	var out bytes.Buffer
	base := testDoc()
	for _, w := range workloads {
		for _, def := range endToEnd {
			limit, gated := def.limitOn(w)
			switch isLoose := slices.Contains(loose[w.name], def.Name); {
			case w.informational:
				if gated {
					t.Errorf("%s is informational, yet %s is gated on it", w.name, def.Name)
				}
			case isLoose:
				if limit != def.Bound || gated != (def.Bound > 0) {
					t.Errorf("%s %s is loose: limit %v gated %v, want its bound %v", w.name, def.Name, limit, gated, def.Bound)
				}
			case limit != def.Gate || !gated:
				t.Errorf("%s %s: limit %v gated %v, want its gate %v", w.name, def.Name, limit, gated, def.Gate)
			}
			if regressed, err := compare(&out, base, worsened(w.name, def, 0.9*limit)); err != nil || regressed {
				t.Errorf("%s %s worse by 0.9 of its limit: regressed=%v err=%v", w.name, def.Name, regressed, err)
			}
			if regressed, _ := compare(&out, base, worsened(w.name, def, 1.1*limit+0.01)); regressed != gated {
				t.Errorf("%s %s worse by more than its limit: regressed=%v, gated=%v", w.name, def.Name, regressed, gated)
			}
			if regressed, _ := compare(&out, base, worsened(w.name, def, -0.5)); regressed {
				t.Errorf("%s %s better by half counts as a regression", w.name, def.Name)
			}
		}
	}
	for wl, names := range loose {
		if w := findWorkload(wl); w == nil || w.informational {
			t.Errorf("loose names workload %s, which is unknown or informational as a whole", wl)
		}
		for _, name := range names {
			if !slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.Name == name }) {
				t.Errorf("loose[%s] names unknown metric %s", wl, name)
			}
		}
	}
}

func TestCompareFailuresAndFingerprints(t *testing.T) {
	var out bytes.Buffer
	base := testDoc()
	failing := testDoc()
	failing.Workloads["fan-tcp"].Correct = false
	if regressed, _ := compare(&out, base, failing); !regressed {
		t.Error("an incorrect run passed")
	}
	other := testDoc()
	other.Fingerprint.NProc = 64
	if _, err := compare(&out, base, other); err == nil {
		t.Error("documents from different machines were compared")
	}
	other = testDoc()
	other.Fingerprint.Commit, other.Fingerprint.Seed = "abc", 9
	if _, err := compare(&out, base, other); err != nil {
		t.Errorf("a different commit and seed must stay comparable: %v", err)
	}
}

// benchmarkFile is the part of BENCHMARK.json this package must agree with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if !slices.Equal(f.Paths, []string{"bench"}) || !slices.Equal(f.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v over paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds < 15 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, the windows may not go below 15 s", f.RunSeconds)
	}
	var listedWorkloads []*workload
	for _, w := range workloads {
		if !w.informational {
			listedWorkloads = append(listedWorkloads, w)
		}
	}
	if len(f.Workloads) != len(listedWorkloads) {
		t.Fatalf("%d workloads listed, the program has %d that are not informational", len(f.Workloads), len(listedWorkloads))
	}
	for i, w := range listedWorkloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q (%q), the program's is %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	// The file's end_to_end is the program's end-to-end metrics that have a
	// Bound; the others must be listed under per_layer.
	var listed []metricDef
	for _, def := range endToEnd {
		if def.Gate > def.Bound && def.Bound != 0 {
			t.Errorf("%s: gate %v is wider than the bound %v", def.Name, def.Gate, def.Bound)
		}
		if def.Bound == 0 {
			if !slices.ContainsFunc(perLayer, func(p metricDef) bool { return p.Name == def.Name && p.Unit == def.Unit }) {
				t.Errorf("%s has no bound and is not a per-layer metric either", def.Name)
			}
			continue
		}
		def.Gate = 0 // not in the file
		listed = append(listed, def)
	}
	if !slices.Equal(f.EndToEnd, listed) {
		t.Errorf("end_to_end differs:\nfile    %+v\nprogram %+v", f.EndToEnd, listed)
	}
	if !slices.Equal(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nfile    %+v\nprogram %+v", f.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, def := range append(slices.Clone(f.EndToEnd), f.PerLayer...) {
		if !nameRE.MatchString(def.Name) || seen[def.Name] {
			t.Errorf("metric name %q is malformed or repeated", def.Name)
		}
		seen[def.Name] = true
		if def.Unit == "" || (def.Better != lower && def.Better != higher) {
			t.Errorf("metric %s needs a unit and a direction", def.Name)
		}
		if def.Bound < 0 || def.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
		hasSetup = hasSetup || (def.Name == "setup_s" && def.Unit == "s" && def.Better == lower)
	}
	for _, def := range f.EndToEnd {
		if def.Bound == 0 || def.Bound > f.EndToEnd[len(f.EndToEnd)-1].Bound {
			t.Errorf("end-to-end metric %s: bound %v must be set and no larger than setup_s's", def.Name, def.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
}

// liveChildren lists this process's child processes that are still running
// (a reaped child is gone from /proc, a zombie would be listed).
func liveChildren(t *testing.T) []int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var kids []int
	for _, path := range stats {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // exited since the glob
		}
		fields := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
		if len(fields) > 1 && fields[1] == strconv.Itoa(os.Getpid()) {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			kids = append(kids, pid)
		}
	}
	return kids
}

// TestSmokeEveryWorkload runs each workload for 300 ms, untraced and traced,
// and holds the emitted results to BENCHMARK.json: every listed metric is
// present under its unit, nothing failed, the drain was clean, and no worker
// process outlives its run.
func TestSmokeEveryWorkload(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, trace := range []bool{false, true} {
		want := f.EndToEnd
		if trace {
			want = f.PerLayer
		}
		for _, w := range workloads {
			res, err := w.run(runOpts{seed: 1, window: 300 * time.Millisecond, trace: trace, quick: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !trace {
				if res.Metrics["failed_share"].Value != 0 || res.Metrics["latency_p99_us"].Value < res.Metrics["latency_p50_us"].Value {
					t.Errorf("%s: implausible end-to-end metrics %+v", w.name, res.Metrics)
				}
				res = res.driverLine()
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d listed", w.name, trace, len(res.Metrics), len(want))
			}
			for _, def := range want {
				got, ok := res.Metrics[def.Name]
				if !ok || got.Unit != def.Unit || math.IsNaN(got.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.name, trace, def.Name, got, ok, def.Unit)
				}
			}
			if trace {
				for _, zero := range []string{"failed_share", "wmm.leaked_bytes", "transport.retries", "transport.timeouts"} {
					if v := res.Metrics[zero].Value; v != 0 {
						t.Errorf("%s: %s = %v, want 0", w.name, zero, v)
					}
				}
				if gap, p50 := res.Metrics["core.span_gap_us"].Value, res.Metrics["trace.latency_p50_us"].Value; gap > 0.1*p50 {
					t.Errorf("%s: spans leave %v us of a %v us request uncovered", w.name, gap, p50)
				}
			} else if res.Metrics["throughput_rps"].Value <= 0 {
				t.Errorf("%s: no throughput: %+v", w.name, res.Metrics)
			}
			if kids := liveChildren(t); len(kids) != 0 {
				t.Fatalf("%s trace=%v: worker processes %v survived the run", w.name, trace, kids)
			}
		}
	}
}

// TestHungRequestsCountAsFailed wedges the second function of a chain and
// checks that a window whose requests outlive the drain timeout still
// reports: each hung client's request counts as attempted and failed.
func TestHungRequestsCountAsFailed(t *testing.T) {
	w := findWorkload("chain-closed")
	ld, _, err := w.setUp(runOpts{seed: 1, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	plain := w.handler(w.fns[1], nil)
	err = ld.d.sys.Register(w.fns[1].name, func(ctx *core.Context) error {
		<-release
		return plain(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	ld.drain = 100 * time.Millisecond
	p, err := ld.window(50*time.Millisecond, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if n := int64(w.clients); p.hung != n || p.failed != n || p.attempted != n || p.samples != 0 || !ld.d.wedged {
		t.Errorf("hung=%d failed=%d attempted=%d samples=%d wedged=%v, want %d/%d/%d/0/true", p.hung, p.failed, p.attempted, p.samples, ld.d.wedged, n, n, n)
	}
	// Let the requests finish so the engine can be shut down after all.
	close(release)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if !slices.ContainsFunc(ld.clients, func(c *loadClient) bool { return !c.exited.Load() }) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("released requests did not finish")
		}
	}
	ld.d.wedged = false
	ld.d.close()
}

func TestSpawnedWorkerDiesWithStop(t *testing.T) {
	p, err := spawnWorker("w1")
	if err != nil {
		t.Fatal(err)
	}
	alive := func() bool { return !errors.Is(syscall.Kill(p.pid(), 0), syscall.ESRCH) }
	if !alive() || len(liveChildren(t)) != 1 {
		t.Fatalf("worker %d not running after spawn", p.pid())
	}
	if cpu, err := procCPU(p.pid()); err != nil || cpu < 0 {
		t.Errorf("procCPU = %v, %v", cpu, err)
	}
	p.stop()
	if alive() || len(liveChildren(t)) != 0 {
		t.Errorf("worker %d survived stop", p.pid())
	}
}
