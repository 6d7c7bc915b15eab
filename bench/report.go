package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// metricDef names one metric. The names are normative: BENCHMARK.json lists
// exactly these (bench_test.go checks it), and later performance claims are
// stated in them.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is BENCHMARK.json's: the share of the baseline median by which
	// the driver lets the metric worsen. The file has one bound per metric
	// for every workload and the driver holds the spread of single runs to
	// it, so it is set by the noisiest workload on the committing machine
	// and capped at 0.25. An end-to-end metric that cannot be listed there
	// under those rules has none: the file lists it under per_layer, the
	// traced run reports it, and the result line of an untraced -workload
	// run leaves it out.
	Bound float64 `json:"bound,omitempty"`
	// Gate is the issue's bound: what -compare lets the metric worsen by on
	// every workload that loose does not list for it.
	Gate float64 `json:"-"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a caller of the system sees, computed for every workload
// by an untraced run. latency_p99_us has no Bound because its spread over
// ten runs exceeds the cap on relay-bulk and reaches it on chain-closed,
// cpu_us_per_req because on relay-bulk (a process that sleeps 93% of the
// time) it follows the box's state: 320-450 us between sets of runs of the
// same code, and 26-28% spread inside the driver's own sets. failed_share
// has none because the driver wants no metric that reads 0.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", higher, 0.25, 0.10},
	{"latency_p50_us", "us", lower, 0.25, 0.10},
	{"latency_p99_us", "us", lower, 0, 0.15},
	{"cpu_us_per_req", "us", lower, 0, 0.10},
	{"failed_share", "ratio", lower, 0, 0},
	{"setup_s", "s", lower, 0.25, 0.10},
}

// loose lists, per listed workload, the metrics that sets of ten runs on the
// committing machine showed cannot hold their Gate there (README, "Noise":
// the spread of a set, or the distance between the medians of two sets taken
// one after the other, exceeds it). -compare marks such a pairing and holds
// it to Bound only, or, where there is none, prints it as information. This
// is the issue's rule — demote the pairing, do not widen the metric's bound —
// kept here because BENCHMARK.json cannot state a bound per workload.
var loose = map[string][]string{
	"chain-closed": {"throughput_rps", "latency_p50_us", "latency_p99_us", "cpu_us_per_req", "setup_s"},
	"relay-bulk":   {"latency_p99_us", "cpu_us_per_req", "setup_s"},
}

// limitOn is what -compare lets def worsen by on wl; gated is false where
// the pairing is information only.
func (def metricDef) limitOn(wl *workload) (limit float64, gated bool) {
	switch {
	case wl.informational:
		return 0, false
	case slices.Contains(loose[wl.name], def.Name):
		return def.Bound, def.Bound > 0
	}
	return def.Gate, true
}

// perLayer is what the traced run reports: spans stamped by the benchmark's
// own clients and handlers (core.*, handler.*), counters read around the
// traced window, and the ladder's direct calls into each layer.
var perLayer = []metricDef{
	{Name: "failed_share", Unit: "ratio", Better: lower},
	{Name: "latency_p99_us", Unit: "us", Better: lower},
	{Name: "cpu_us_per_req", Unit: "us", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: higher},
	{Name: "trace.latency_p50_us", Unit: "us", Better: lower},

	{Name: "core.invoke_call_us", Unit: "us", Better: lower},
	{Name: "core.entry_trigger_us", Unit: "us", Better: lower},
	{Name: "core.edge_trigger_us", Unit: "us", Better: lower},
	{Name: "core.edge_trigger_p99_us", Unit: "us", Better: lower},
	{Name: "core.put_call_us", Unit: "us", Better: lower},
	{Name: "core.input_call_us", Unit: "us", Better: lower},
	{Name: "core.complete_us", Unit: "us", Better: lower},
	{Name: "core.span_gap_us", Unit: "us", Better: lower},
	{Name: "core.fanin_skew_us", Unit: "us", Better: lower},
	{Name: "core.allocs_per_req", Unit: "count", Better: lower},
	{Name: "core.alloc_bytes_per_req", Unit: "bytes", Better: lower},
	{Name: "core.dlu_batch_items_mean", Unit: "count", Better: higher},
	{Name: "handler.self_us", Unit: "us", Better: lower},

	{Name: "dataflow.tracker_req_ns", Unit: "ns", Better: lower},
	{Name: "cluster.acquire_release_ns", Unit: "ns", Better: lower},
	{Name: "cluster.cold_starts", Unit: "count", Better: lower},
	{Name: "cluster.containers_peak", Unit: "count", Better: lower},

	{Name: "wmm.put_ns", Unit: "ns", Better: lower},
	{Name: "wmm.get_ns", Unit: "ns", Better: lower},
	{Name: "wmm.putbatch_item_ns", Unit: "ns", Better: lower},
	{Name: "wmm.release_ns", Unit: "ns", Better: lower},
	{Name: "wmm.puts_per_req", Unit: "count", Better: lower},
	{Name: "wmm.gets_per_req", Unit: "count", Better: lower},
	{Name: "wmm.mem_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "wmm.resident_peak_bytes", Unit: "bytes", Better: lower},
	{Name: "wmm.leaked_bytes", Unit: "bytes", Better: lower},

	{Name: "pipe.take_cpu_ns", Unit: "ns", Better: lower},
	{Name: "pipe.chunk_wait_us", Unit: "us", Better: lower},
	{Name: "pipe.pacing_overshoot_ratio", Unit: "ratio", Better: lower},
	{Name: "pipe.sleep_floor_us", Unit: "us", Better: lower},

	{Name: "transport.inproc_ship_ns", Unit: "ns", Better: lower},
	{Name: "transport.inproc_land_ns", Unit: "ns", Better: lower},
	{Name: "transport.frame_write_ns", Unit: "ns", Better: lower},
	{Name: "transport.frame_read_ns", Unit: "ns", Better: lower},
	{Name: "transport.tcp_ping_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_land_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_ship_item_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_get_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_release_us", Unit: "us", Better: lower},
	{Name: "transport.hol_wait_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_land_loaded_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_get_loaded_us", Unit: "us", Better: lower},
	{Name: "transport.client_queue_wait_us", Unit: "us", Better: lower},
	{Name: "transport.frames_per_req", Unit: "count", Better: lower},
	{Name: "transport.wire_bytes_per_req", Unit: "bytes", Better: lower},
	{Name: "transport.wire_amplification", Unit: "ratio", Better: lower},
	{Name: "transport.retries", Unit: "count", Better: lower},
	{Name: "transport.timeouts", Unit: "count", Better: lower},

	{Name: "workflow.parse_us", Unit: "us", Better: lower},
	{Name: "budget.edge_attributed_us", Unit: "us", Better: lower},
	{Name: "budget.edge_queue_wait_us", Unit: "us", Better: lower},
	{Name: "budget.edge_unattributed_us", Unit: "us", Better: lower},
}

func metricsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		m[d.Name] = d.Unit
	}
	return m
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the object the benchmark prints as
// the last line of its standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverLine is the result as the driver's contract wants an untraced run
// printed: without the end-to-end metrics BENCHMARK.json cannot list.
func (r *result) driverLine() *result {
	line := *r
	line.Metrics = map[string]metricValue{}
	for _, def := range endToEnd {
		if def.Bound > 0 {
			line.Metrics[def.Name] = r.Metrics[def.Name]
		}
	}
	return &line
}

// failedShare is (Invoke errors + Wait errors + wrong outputs + requests
// that outlived the drain timeout + a dirty drain) ÷ attempted.
func (r *result) failedShare() float64 {
	return float64(r.Failed) / float64(max(r.Attempted, 1))
}

// set records a metric under its declared unit. An undeclared name is a
// bug in the benchmark, not in the run.
func (r *result) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in report.go")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// fingerprint identifies the machine and the run parameters a document's
// numbers belong to.
type fingerprint struct {
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Go           string  `json:"go"`
	Kernel       string  `json:"kernel"`
	SleepFloorUS float64 `json:"pipe.sleep_floor_us"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	WindowS      float64 `json:"window_s"`
}

func readFingerprint(seed int64, windowS float64) fingerprint {
	fp := fingerprint{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Kernel: "unknown", Commit: "unknown",
		SleepFloorUS: sleepFloorUS(20), Seed: seed, WindowS: windowS,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(raw))
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

// comparable reports why two fingerprints' numbers must not be compared
// ("" when they may). Commit and seed may differ — comparing commits is the
// point — but the machine, the window and its timer behaviour may not.
func (a fingerprint) comparable(b fingerprint) string {
	switch {
	case a.CPU != b.CPU || a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("different machines: %q %d/%d vs %q %d/%d", a.CPU, a.NProc, a.GOMAXPROCS, b.CPU, b.NProc, b.GOMAXPROCS)
	case a.Go != b.Go || a.Kernel != b.Kernel:
		return fmt.Sprintf("different toolchain or kernel: %s %s vs %s %s", a.Go, a.Kernel, b.Go, b.Kernel)
	case a.WindowS != b.WindowS:
		return fmt.Sprintf("different windows: %gs vs %gs", a.WindowS, b.WindowS)
	case math.Abs(a.SleepFloorUS-b.SleepFloorUS) > 0.25*math.Min(a.SleepFloorUS, b.SleepFloorUS):
		return fmt.Sprintf("different timer floors: %.0fus vs %.0fus", a.SleepFloorUS, b.SleepFloorUS)
	}
	return ""
}

// document is one set of runs: every workload, traced or not.
type document struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Trace       bool               `json:"trace"`
	Workloads   map[string]*result `json:"workloads"`
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// worsening is how much worse b is than a as a share of a, by the metric's
// direction (negative when b is better).
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if def.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare prints, per workload and metric, both documents' values, the
// relative difference and the bound, and reports whether any end-to-end
// metric of b is worse than a's by more than limitOn allows — for
// failed_share, at all. Traced documents are printed side by side without
// verdicts: per-layer metrics have no bounds.
func compare(w io.Writer, a, b *document) (regressed bool, err error) {
	if why := a.Fingerprint.comparable(b.Fingerprint); why != "" {
		return false, fmt.Errorf("refusing to compare: %s", why)
	}
	if a.Trace != b.Trace {
		return false, fmt.Errorf("refusing to compare a traced with an untraced document")
	}
	fmt.Fprintf(w, "%-13s %-32s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			return false, fmt.Errorf("workload %s is missing from a document", wl.name)
		}
		if !rb.Correct {
			regressed = true
			fmt.Fprintf(w, "%-13s B failed requests or drained dirty  REGRESSED\n", wl.name)
		}
		for _, def := range metricsFor(a.Trace) {
			va, vb := ra.Metrics[def.Name].Value, rb.Metrics[def.Name].Value
			worse := worsening(def, va, vb)
			verdict, bound := "", "-"
			if limit, gated := def.limitOn(wl); gated && !a.Trace {
				bound = fmt.Sprintf("%.0f%%", limit*100)
				if limit != def.Gate {
					bound += "*" // a loose pairing, held to BENCHMARK.json's bound
				}
				if worse > limit {
					regressed, verdict = true, "  REGRESSED"
				}
			} else if !a.Trace {
				bound = "info"
			}
			fmt.Fprintf(w, "%-13s %-32s %14.4f %14.4f %+7.1f%% %6s%s\n", wl.name, def.Name, va, vb, worse*100, bound, verdict)
		}
	}
	return regressed, nil
}

// childRun runs every workload once, untraced, in a fresh process of this
// binary and decodes its document.
func childRun(seed int64, seconds int) (*document, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// A run that failed requests exits non-zero after printing its document:
	// the document carries the failure into the comparison.
	out, runErr := cmd.Output()
	var d document
	if err := json.Unmarshal(out, &d); err != nil {
		return nil, fmt.Errorf("run with seed %d printed no document (%v): %w", seed, runErr, err)
	}
	return &d, nil
}

// selfcheckRuns is how many runs each of selfcheck's two sets takes. Single
// runs on the committing machine disagree by up to 39% (README,
// "Repeatability"); medians of three hold.
const selfcheckRuns = 3

// selfcheck shows the benchmark repeats itself: it runs the full set twice,
// selfcheckRuns times each with a different seed every time, and compares
// the two sets' medians like any two documents. The two sets' runs
// alternate, so that the box's drift over the minutes a set takes falls on
// both alike.
func selfcheck(w io.Writer, seed int64, seconds int) (ok bool, err error) {
	var runs [2][]*document
	for r := 0; r < selfcheckRuns; r++ {
		for set := range runs {
			d, err := childRun(seed+int64(2*r+set), seconds)
			if err != nil {
				return false, err
			}
			runs[set] = append(runs[set], d)
		}
	}
	var docs [2]*document
	for set := range docs {
		docs[set] = &document{Fingerprint: runs[set][0].Fingerprint, Workloads: map[string]*result{}}
		for _, wl := range workloads {
			agg := &result{Correct: true, Metrics: map[string]metricValue{}}
			samples := map[string][]float64{}
			for _, d := range runs[set] {
				res := d.Workloads[wl.name]
				if res == nil {
					return false, fmt.Errorf("a run's document lacks workload %s", wl.name)
				}
				agg.Correct = agg.Correct && res.Correct
				agg.Attempted += res.Attempted
				agg.Failed += res.Failed
				for _, def := range endToEnd {
					samples[def.Name] = append(samples[def.Name], res.Metrics[def.Name].Value)
				}
			}
			for _, def := range endToEnd {
				agg.set(def.Name, median(samples[def.Name]))
			}
			docs[set].Workloads[wl.name] = agg
		}
	}
	regressed, err := compare(w, docs[0], docs[1])
	return !regressed, err
}
