// Package experiments regenerates every table and figure of the paper's
// investigation (§3, Fig. 2) and evaluation (§9, Figs. 10–19) on the
// simulation plane. Each FigNN function returns a Report with the same
// rows/series the paper plots; cmd/benchrunner prints them and
// bench_test.go wraps them as benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/simcluster"
	"repro/internal/workloads"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks sweeps and measurement windows for CI/bench runs while
	// keeping every system and benchmark covered.
	Quick bool
	// Seed overrides the default simulation seed.
	Seed int64
}

func (o Options) seed() int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 42
}

// Table is one printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Report is the output of one experiment.
type Report struct {
	ID     string
	Title  string
	Tables []*Table
	Notes  []string
}

// String renders the whole report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// benchProfiles returns the four benchmarks in the paper's order.
func benchProfiles() []*workloads.Profile { return workloads.All() }

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// threeSystems are the head-to-head systems of §9.
var threeSystems = []simcluster.Kind{simcluster.DataFlower, simcluster.FaaSFlow, simcluster.SONIC}

// Fig2a reproduces Fig. 2(a): per-function communication/computation
// breakdown and average E2E latency of the four benchmarks on a
// production-style (state machine) control-flow platform.
func Fig2a(o Options) *Report {
	rep := &Report{ID: "fig2a", Title: "E2E communication/computation breakdown under the control-flow paradigm"}
	summary := &Table{
		Title:  "Per-benchmark totals",
		Header: []string{"benchmark", "comm share", "comp share", "avg E2E (s)"},
	}
	for _, prof := range benchProfiles() {
		s := simcluster.New(simcluster.Config{
			Kind: simcluster.StateMachine, Profile: prof, Seed: o.seed(),
		})
		res := s.RunOne()
		perFn := &Table{
			Title:  fmt.Sprintf("%s per-function breakdown", prof.Name),
			Header: []string{"function", "comm (s)", "comp (s)", "comm share"},
		}
		var comm, comp float64
		for _, f := range prof.Workflow.Functions {
			st := res.FnStats[f.Name]
			perFn.Rows = append(perFn.Rows, []string{
				f.Name, f3(st.CommSec), f3(st.CompSec),
				pct(st.CommSec / (st.CommSec + st.CompSec)),
			})
			comm += st.CommSec
			comp += st.CompSec
		}
		rep.Tables = append(rep.Tables, perFn)
		summary.Rows = append(summary.Rows, []string{
			prof.Name, pct(comm / (comm + comp)), pct(comp / (comm + comp)),
			f2(res.Latencies.Mean()),
		})
	}
	rep.Tables = append(rep.Tables, summary)
	rep.Notes = append(rep.Notes,
		"paper: comm accounts for 26.0% (img), 49.5% (vid), 35.3% (svd), 89.2% (wc)")
	return rep
}

// Fig2b reproduces Fig. 2(b): the CPU vs network usage timeline under a
// sequential request stream. Control flow staggers the compute and network
// phases (a container is either loading/storing or computing); DataFlower
// overlaps them (the DLU pumps request N's data while the FLU computes
// request N+1).
func Fig2b(o Options) *Report {
	rep := &Report{ID: "fig2b", Title: "Resource usage timeline (CPU vs network)"}
	for _, kind := range []simcluster.Kind{simcluster.StateMachine, simcluster.DataFlower} {
		prof := workloads.WordCount(4, 0)
		s := simcluster.New(simcluster.Config{Kind: kind, Profile: prof, Seed: o.seed()})
		win := 30 * time.Second
		if o.Quick {
			win = 15 * time.Second
		}
		res := s.RunClosedLoop(2, win)
		tab := &Table{
			Title:  fmt.Sprintf("wc under %s: busy containers (CPU) and in-flight transfers (Net)", kind),
			Header: []string{"t (s)", "cpu", "net"},
		}
		steps := 20
		for i := 0; i <= steps; i++ {
			at := time.Duration(float64(win) * float64(i) / float64(steps))
			tab.Rows = append(tab.Rows, []string{
				f2(at.Seconds()), f1(res.CPUBusy.SampleAt(at)), f1(res.NetBusy.SampleAt(at)),
			})
		}
		rep.Tables = append(rep.Tables, tab)
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: CPU and network simultaneously busy for %.3f s inside containers (%.1f%% of %.1f s compute)",
			kind, res.OverlapSec, 100*res.OverlapSec/res.CPUBusySec, res.CPUBusySec))
	}
	rep.Notes = append(rep.Notes, "paper: control flow staggers CPU and network peaks; DataFlower overlaps them")
	return rep
}

// Fig2c reproduces Fig. 2(c): the control-plane triggering overhead between
// adjacent functions on the production orchestrator.
func Fig2c(o Options) *Report {
	rep := &Report{ID: "fig2c", Title: "Control-plane triggering overhead (state machine orchestrator)"}
	tab := &Table{Header: []string{"benchmark", "avg trigger overhead (ms)"}}
	for _, prof := range benchProfiles() {
		s := simcluster.New(simcluster.Config{
			Kind: simcluster.StateMachine, Profile: prof, Seed: o.seed(),
		})
		res := s.RunOne()
		preds := map[string][]string{}
		for _, f := range prof.Workflow.Functions {
			preds[f.Name] = prof.Workflow.Predecessors(f.Name)
		}
		gaps := obs.TriggerGaps(res.Trace, preds)
		total, n := 0.0, 0
		for _, g := range gaps {
			if g.Gap > 0 {
				total += g.Gap.Seconds() * 1000
				n++
			}
		}
		avg := 0.0
		if n > 0 {
			avg = total / float64(n)
		}
		tab.Rows = append(tab.Rows, []string{prof.Name, f1(avg)})
	}
	rep.Tables = append(rep.Tables, tab)
	rep.Notes = append(rep.Notes, "paper: 63.3 ms on average between adjacent functions")
	return rep
}

// loadPointsFig10 returns the paper's per-benchmark rpm sweeps.
func loadPointsFig10(name string, quick bool) []float64 {
	full := map[string][]float64{
		"img": {10, 20, 40, 60, 80, 100, 120},
		"vid": {4, 8, 12, 16, 20, 40, 80},
		"svd": {10, 20, 40, 60, 80, 100},
		"wc":  {10, 20, 40, 80, 160, 320, 640},
	}[name]
	if quick && len(full) > 3 {
		return []float64{full[0], full[len(full)/2], full[len(full)-1]}
	}
	return full
}

// Fig10 reproduces Fig. 10: asynchronous open-loop latency (avg and p99)
// and memory GB·s per request across load levels for the three systems.
func Fig10(o Options) *Report {
	rep := &Report{ID: "fig10", Title: "Async invocations: E2E latency and memory usage vs load"}
	for _, prof := range benchProfiles() {
		tab := &Table{
			Title:  fmt.Sprintf("%s (async open loop)", prof.Name),
			Header: []string{"rpm", "system", "avg (s)", "p99 (s)", "mem (GB·s/req)", "failed"},
		}
		for _, rpm := range loadPointsFig10(prof.Name, o.Quick) {
			count := int(rpm)
			if count < 20 {
				count = 20
			}
			if o.Quick {
				count /= 2
				if count < 10 {
					count = 10
				}
			}
			for _, kind := range threeSystems {
				s := simcluster.New(simcluster.Config{Kind: kind, Profile: cloneProfile(prof), Seed: o.seed()})
				res := s.RunOpenLoop(rpm, count)
				tab.Rows = append(tab.Rows, []string{
					f1(rpm), kind.String(),
					f2(res.Latencies.Mean()), f2(res.Latencies.P99()),
					f3(res.MemGBsPerReq), fmt.Sprint(res.Failed),
				})
			}
		}
		rep.Tables = append(rep.Tables, tab)
	}
	rep.Notes = append(rep.Notes,
		"paper: DataFlower reduces p99 latency by 5.7–35.4% vs FaaSFlow and 8.9–29.2% vs SONIC",
		"paper: container memory usage drops 19.1–69.3% vs FaaSFlow and 7.4–64.1% vs SONIC")
	return rep
}

// clientsFig11 returns the paper's closed-loop client sweeps.
func clientsFig11(name string, quick bool) []int {
	full := map[string][]int{
		"img": {1, 2, 4, 6, 8, 10, 11},
		"vid": {1, 2, 4, 8, 16, 24, 32, 36},
		"svd": {1, 2, 4, 8, 12, 16, 20, 24},
		"wc":  {1, 2, 4, 8, 16, 20, 24},
	}[name]
	if quick && len(full) > 3 {
		return []int{full[0], full[len(full)/2], full[len(full)-1]}
	}
	return full
}

func window(o Options) time.Duration {
	if o.Quick {
		return 45 * time.Second
	}
	return 2 * time.Minute
}

// Fig11 reproduces Fig. 11: synchronous closed-loop throughput vs clients.
func Fig11(o Options) *Report {
	rep := &Report{ID: "fig11", Title: "Sync invocations: throughput (rpm) vs closed-loop clients"}
	for _, prof := range benchProfiles() {
		tab := &Table{
			Title:  fmt.Sprintf("%s (closed loop)", prof.Name),
			Header: []string{"clients", "DataFlower", "FaaSFlow", "SONIC"},
		}
		for _, clients := range clientsFig11(prof.Name, o.Quick) {
			row := []string{fmt.Sprint(clients)}
			for _, kind := range threeSystems {
				s := simcluster.New(simcluster.Config{Kind: kind, Profile: cloneProfile(prof), Seed: o.seed()})
				res := s.RunClosedLoop(clients, window(o))
				row = append(row, f1(res.ThroughputRPM))
			}
			tab.Rows = append(tab.Rows, row)
		}
		rep.Tables = append(rep.Tables, tab)
	}
	rep.Notes = append(rep.Notes,
		"paper: peak throughput up 1.03–3.8x vs FaaSFlow and 1.29–2.42x vs SONIC")
	return rep
}

// Fig12 reproduces Fig. 12: DataFlower vs DataFlower-Non-aware throughput.
func Fig12(o Options) *Report {
	rep := &Report{ID: "fig12", Title: "Pressure-aware scaling ablation: throughput (rpm) vs clients"}
	for _, prof := range benchProfiles() {
		tab := &Table{
			Title:  fmt.Sprintf("%s (closed loop)", prof.Name),
			Header: []string{"clients", "DataFlower", "Non-aware"},
		}
		for _, clients := range clientsFig11(prof.Name, o.Quick) {
			row := []string{fmt.Sprint(clients)}
			for _, kind := range []simcluster.Kind{simcluster.DataFlower, simcluster.DataFlowerNonAware} {
				s := simcluster.New(simcluster.Config{Kind: kind, Profile: cloneProfile(prof), Seed: o.seed()})
				res := s.RunClosedLoop(clients, window(o))
				row = append(row, f1(res.ThroughputRPM))
			}
			tab.Rows = append(tab.Rows, row)
		}
		rep.Tables = append(rep.Tables, tab)
	}
	rep.Notes = append(rep.Notes,
		"paper: img is insensitive (small data); vid/svd/wc collapse without pressure awareness")
	return rep
}

// Fig13 reproduces Fig. 13: the wc function-triggering timeline on a single
// node for the three systems.
func Fig13(o Options) *Report {
	rep := &Report{ID: "fig13", Title: "wc triggering timeline, single node (early triggering + input caching)"}
	for _, kind := range threeSystems {
		s := simcluster.New(simcluster.Config{
			Kind: kind, Profile: workloads.WordCount(4, 0),
			Placement: cluster.SingleNode{}, Seed: o.seed(),
		})
		res := s.RunOne()
		tab := &Table{
			Title:  kind.String(),
			Header: []string{"function", "idx", "triggered (s)", "started (s)", "finished (s)"},
		}
		for _, sp := range obs.Spans(res.Trace) {
			tab.Rows = append(tab.Rows, []string{
				sp.Fn, fmt.Sprint(sp.Idx),
				f3(sp.Triggered.Seconds()), f3(sp.Started.Seconds()), f3(sp.Finished.Seconds()),
			})
		}
		rep.Tables = append(rep.Tables, tab)
	}
	rep.Notes = append(rep.Notes,
		"paper: DataFlower triggers count/merge ~2 ms after data readiness; FaaSFlow 6–15 ms after predecessor completion; SONIC much later via VM storage")
	return rep
}

// Fig14 reproduces Fig. 14: host memory for caching intermediate data, per
// request, DataFlower vs FaaSFlow.
func Fig14(o Options) *Report {
	rep := &Report{ID: "fig14", Title: "Host cache usage for intermediate data (MB·s per request)"}
	clientsList := []int{1, 2, 4, 8}
	if o.Quick {
		clientsList = []int{1, 4}
	}
	for _, prof := range benchProfiles() {
		tab := &Table{
			Title:  prof.Name,
			Header: []string{"clients", "DataFlower", "FaaSFlow", "reduction"},
		}
		for _, clients := range clientsList {
			var vals []float64
			for _, kind := range []simcluster.Kind{simcluster.DataFlower, simcluster.FaaSFlow} {
				s := simcluster.New(simcluster.Config{Kind: kind, Profile: cloneProfile(prof), Seed: o.seed()})
				res := s.RunClosedLoop(clients, window(o)/2)
				vals = append(vals, res.CacheMBsPerReq)
			}
			red := 0.0
			if vals[1] > 0 {
				red = 1 - vals[0]/vals[1]
			}
			tab.Rows = append(tab.Rows, []string{
				fmt.Sprint(clients), f3(vals[0]), f3(vals[1]), pct(red),
			})
		}
		rep.Tables = append(rep.Tables, tab)
	}
	rep.Notes = append(rep.Notes,
		"paper: DataFlower reduces cache memory by 19.1% (img), 90.2% (vid), 94.9% (svd), 97.5% (wc)")
	return rep
}

// Fig15 reproduces Fig. 15: bursty load (10 rpm -> 100 rpm) latency CDF and
// standard deviation for wc.
func Fig15(o Options) *Report {
	rep := &Report{ID: "fig15", Title: "Bursty load: wc latency CDF and sigma (10 rpm -> 100 rpm)"}
	tab := &Table{Header: []string{"system", "avg (s)", "p50 (s)", "p99 (s)", "sigma", "completed"}}
	cdf := &Table{
		Title:  "CDF points (fraction <= latency)",
		Header: []string{"system", "p10", "p25", "p50", "p75", "p90", "p99"},
	}
	dur := time.Minute
	if o.Quick {
		dur = 30 * time.Second
	}
	for _, kind := range threeSystems {
		s := simcluster.New(simcluster.Config{Kind: kind, Profile: workloads.WordCount(4, 0), Seed: o.seed()})
		res := s.RunBurst(10, 100, dur, dur)
		lat := res.Latencies
		tab.Rows = append(tab.Rows, []string{
			kind.String(), f3(lat.Mean()), f3(lat.P50()), f3(lat.P99()),
			f3(lat.StdDev()), fmt.Sprint(res.Completed),
		})
		cdf.Rows = append(cdf.Rows, []string{
			kind.String(),
			f3(lat.Percentile(10)), f3(lat.Percentile(25)), f3(lat.P50()),
			f3(lat.Percentile(75)), f3(lat.Percentile(90)), f3(lat.P99()),
		})
	}
	rep.Tables = append(rep.Tables, tab, cdf)
	rep.Notes = append(rep.Notes, "paper: sigma 0.050 (FaaSFlow), 0.053 (DataFlower), 0.155 (SONIC); DataFlower has the lowest avg/p99")
	return rep
}

// Fig16 reproduces Fig. 16: wc latency/throughput vs fan-out branches (a)
// and input size (b).
func Fig16(o Options) *Report {
	rep := &Report{ID: "fig16", Title: "Adaptiveness: wc with varying fan-out and input size"}
	fanouts := []int{2, 4, 8, 12, 16}
	sizes := []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}
	if o.Quick {
		fanouts = []int{2, 8, 16}
		sizes = []int64{1 << 20, 4 << 20, 16 << 20}
	}
	ftab := &Table{
		Title:  "(a) fan-out sweep, 4 MB input: avg latency (s) / throughput (rpm)",
		Header: []string{"branches", "DataFlower", "FaaSFlow", "SONIC"},
	}
	for _, fo := range fanouts {
		row := []string{fmt.Sprint(fo)}
		for _, kind := range threeSystems {
			s := simcluster.New(simcluster.Config{Kind: kind, Profile: workloads.WordCount(fo, 4<<20), Seed: o.seed()})
			res := s.RunClosedLoop(6, window(o)/2)
			row = append(row, fmt.Sprintf("%s / %s", f2(res.Latencies.Mean()), f1(res.ThroughputRPM)))
		}
		ftab.Rows = append(ftab.Rows, row)
	}
	stab := &Table{
		Title:  "(b) input size sweep, 4 branches: avg latency (s) / throughput (rpm)",
		Header: []string{"input", "DataFlower", "FaaSFlow", "SONIC"},
	}
	for _, size := range sizes {
		row := []string{fmt.Sprintf("%dM", size>>20)}
		for _, kind := range threeSystems {
			s := simcluster.New(simcluster.Config{Kind: kind, Profile: workloads.WordCount(4, size), Seed: o.seed()})
			res := s.RunClosedLoop(6, window(o)/2)
			row = append(row, fmt.Sprintf("%s / %s", f2(res.Latencies.Mean()), f1(res.ThroughputRPM)))
		}
		stab.Rows = append(stab.Rows, row)
	}
	rep.Tables = append(rep.Tables, ftab, stab)
	rep.Notes = append(rep.Notes,
		"paper: DataFlower's advantage grows with fan-out (peak +69.3% vs FaaSFlow) and shrinks as input grows (+91.8% at 1M -> +29.5% at 16M vs FaaSFlow)")
	return rep
}

// Fig17 reproduces Fig. 17: scaling up the container spec (128–640 MB) for
// wc with 4 MB input and 8 branches.
func Fig17(o Options) *Report {
	rep := &Report{ID: "fig17", Title: "Scale-up: wc (4 MB, 8 branches) vs container memory"}
	mems := []int{128, 256, 384, 512, 640}
	if o.Quick {
		mems = []int{128, 384, 640}
	}
	tab := &Table{Header: []string{"container", "system", "avg (s)", "throughput (rpm)"}}
	for _, mem := range mems {
		for _, kind := range threeSystems {
			s := simcluster.New(simcluster.Config{
				Kind: kind, Profile: workloads.WordCount(8, 4<<20), MemMB: mem, Seed: o.seed(),
			})
			res := s.RunClosedLoop(6, window(o)/2)
			tab.Rows = append(tab.Rows, []string{
				fmt.Sprintf("%dMB", mem), kind.String(),
				f2(res.Latencies.Mean()), f1(res.ThroughputRPM),
			})
		}
	}
	rep.Tables = append(rep.Tables, tab)
	rep.Notes = append(rep.Notes,
		"paper: DataFlower and SONIC scale ~linearly with container size; FaaSFlow is capped by backend storage; +148.4% vs FaaSFlow at 640 MB")
	return rep
}

// colocatedBaseRPM approximates each benchmark's per-workflow capacity when
// the four workflows share the three workers under a control-flow system
// (derived from the Fig. 11 peaks divided across the co-located mix). Load
// levels are fractions of it; "ultra" exceeds the control-flow capacity but
// stays under DataFlower's.
var colocatedBaseRPM = map[string]float64{
	"img": 48, "vid": 50, "svd": 68, "wc": 325,
}

// Fig18 reproduces Fig. 18: the four benchmarks co-located on the three
// workers at increasing load.
func Fig18(o Options) *Report {
	rep := &Report{ID: "fig18", Title: "Co-located workflows: avg E2E latency per benchmark"}
	loads := []struct {
		name string
		frac float64
	}{{"low", 0.2}, {"mid", 0.5}, {"high", 0.8}, {"ultra", 2.0}}
	if o.Quick {
		loads = []struct {
			name string
			frac float64
		}{{"low", 0.2}, {"ultra", 2.0}}
	}
	for _, kind := range threeSystems {
		tab := &Table{
			Title:  kind.String(),
			Header: []string{"load", "img (s)", "vid (s)", "svd (s)", "wc (s)", "failed"},
		}
		// Solo baseline: a warmed low-rate run of each benchmark alone.
		solo := []string{"solo"}
		for _, prof := range benchProfiles() {
			s := simcluster.New(simcluster.Config{Kind: kind, Profile: cloneProfile(prof), Seed: o.seed()})
			res := s.RunOpenLoop(6, 12)
			solo = append(solo, f2(res.Latencies.Mean()))
		}
		solo = append(solo, "0")
		tab.Rows = append(tab.Rows, solo)
		for _, ld := range loads {
			all := benchProfiles()
			// Overtaxed machines: the shared cluster cannot scale out past a
			// small per-function cap, as on the paper's heavily loaded
			// 16-core workers.
			s := simcluster.New(simcluster.Config{
				Kind: kind, Profile: all[0], Colocated: all[1:], Seed: o.seed(),
				MaxContainersPerFn: 6,
			})
			rates := map[string]float64{}
			for name, base := range colocatedBaseRPM {
				rates[name] = base * ld.frac
			}
			count := 40
			if o.Quick {
				count = 10
			}
			res := s.RunColocatedOpenLoop(rates, 10, count)
			row := []string{ld.name}
			for _, prof := range all {
				row = append(row, f2(s.LatencyOf(prof.Name).Mean()))
			}
			row = append(row, fmt.Sprint(res.Failed))
			tab.Rows = append(tab.Rows, row)
		}
		rep.Tables = append(rep.Tables, tab)
	}
	rep.Notes = append(rep.Notes,
		"paper: DataFlower keeps the lowest latency in all co-location cases; FaaSFlow and SONIC fail at ultra load; <2x degradation for DataFlower")
	return rep
}

// Fig19 reproduces Fig. 19: communication overhead with a traditional
// state-machine stateful deployment vs DataFlower's streaming functions.
func Fig19(o Options) *Report {
	rep := &Report{ID: "fig19", Title: "Stateful functions: data transfer time, state machine vs DataFlower pipes"}
	tab := &Table{Header: []string{"benchmark", "state machine (ms)", "DataFlower (ms)", "reduction"}}
	for _, prof := range benchProfiles() {
		var comm [2]float64
		for i, kind := range []simcluster.Kind{simcluster.StateMachine, simcluster.DataFlower} {
			s := simcluster.New(simcluster.Config{Kind: kind, Profile: cloneProfile(prof), Seed: o.seed()})
			res := s.RunOne()
			total := 0.0
			for _, st := range res.FnStats {
				total += st.CommSec
			}
			comm[i] = total * 1000
		}
		tab.Rows = append(tab.Rows, []string{
			prof.Name, f1(comm[0]), f1(comm[1]), pct(1 - comm[1]/comm[0]),
		})
	}
	rep.Tables = append(rep.Tables, tab)
	rep.Notes = append(rep.Notes, "paper: the pipe connector reduces function-to-function data transfer time by up to 47.6%")
	return rep
}

// Skew demonstrates replica routing on the simulation plane (beyond the
// paper's figures): the four benchmarks co-located on the
// three workers with arrivals Zipf-skewed toward wc, comparing the pinned
// single-replica placement against replicated round-robin placement under
// DataFlower. With replicas, the hot workflow's functions can run on more
// than one node, so the hot node's NIC and dispatch queue stop being the
// ceiling.
func Skew(o Options) *Report {
	rep := &Report{ID: "skew", Title: "Zipf-skewed co-located load: pinned vs replicated placement (DataFlower)"}
	tab := &Table{
		Header: []string{"placement", "hot avg (s)", "hot p99 (s)", "hot reqs", "throughput (rpm)", "failed"},
	}
	count := 120
	rpm := 360.0
	if o.Quick {
		count, rpm = 40, 240
	}
	for _, pl := range []struct {
		name string
		pol  cluster.PlacementPolicy
	}{
		{"pinned (1 replica)", nil},
		{"replicated (x2)", cluster.RoundRobin{Replicas: 2}},
		{"replicated (x3)", cluster.RoundRobin{Replicas: 3}},
	} {
		all := benchProfiles()
		s := simcluster.New(simcluster.Config{
			Kind:      simcluster.DataFlower,
			Profile:   all[3], // wc is the hot workflow (Zipf rank 0)
			Colocated: all[:3],
			Placement: pl.pol,
			Seed:      o.seed(),
		})
		res := s.RunSkewedOpenLoop(rpm, count, 2.0)
		hot := s.LatencyOf("wc")
		tab.Rows = append(tab.Rows, []string{
			pl.name, f3(hot.Mean()), f3(hot.P99()), fmt.Sprint(hot.Count()),
			f1(res.ThroughputRPM), fmt.Sprint(res.Failed),
		})
	}
	rep.Tables = append(rep.Tables, tab)
	rep.Notes = append(rep.Notes,
		"not a paper figure: exercises replica routing (fixed replica sets + locality-first, load-steered selection)")
	return rep
}

// cloneProfile re-derives a fresh profile (profiles hold parsed workflows
// that are safe to share, but distinct sims should not share tracker state;
// re-deriving keeps runs independent).
func cloneProfile(p *workloads.Profile) *workloads.Profile {
	switch p.Name {
	case "img":
		return workloads.ImageProcessing(p.InputSize)
	case "vid":
		return workloads.VideoFFmpeg(p.Fanout, p.InputSize)
	case "svd":
		return workloads.SVD(p.Fanout, p.InputSize)
	default:
		return workloads.WordCount(p.Fanout, p.InputSize)
	}
}

// Faults demonstrates the fault-tolerance plane (beyond the paper's
// figures): each of the four benchmarks runs an open loop with every
// function on two replicas while one worker is killed mid-run and recovered
// later. Availability is completed/issued; recovered requests were in
// flight across the kill and completed anyway, via pin repair and replay:
// the items the dead node's Wait-Match Memory lost before their instance
// fetched them are re-shipped from the coordinator's log, and no function
// runs again. Replays counts those items.
func Faults(o Options) *Report {
	rep := &Report{ID: "faults", Title: "Availability under a node-kill schedule (DataFlower, 2 replicas/function)"}
	tab := &Table{
		Header: []string{"benchmark", "issued", "completed", "availability", "recovered", "replays", "recovery avg (s)", "recovery p99 (s)"},
	}
	count := 120
	rpm := 480.0
	if o.Quick {
		count, rpm = 40, 360
	}
	for _, prof := range benchProfiles() {
		s := simcluster.New(simcluster.Config{
			Kind:      simcluster.DataFlower,
			Profile:   cloneProfile(prof),
			Placement: cluster.RoundRobin{Replicas: 2},
			Seed:      o.seed(),
			Faults: []simcluster.FaultEvent{
				{At: 2 * time.Second, Node: "w1", Kind: simcluster.KillNode},
				{At: 6 * time.Second, Node: "w1", Kind: simcluster.RecoverNode},
			},
		})
		res := s.RunOpenLoop(rpm, count)
		tab.Rows = append(tab.Rows, []string{
			prof.Name,
			fmt.Sprint(count),
			fmt.Sprint(res.Completed),
			pct(float64(res.Completed) / float64(count)),
			fmt.Sprint(res.Recovered),
			fmt.Sprint(res.Replays),
			f3(res.RecoveryLat.Mean()),
			f3(res.RecoveryLat.P99()),
		})
	}
	rep.Tables = append(rep.Tables, tab)
	rep.Notes = append(rep.Notes,
		"not a paper figure: recovery re-ships lost, unfetched items from the coordinator's log; nothing is recomputed (kill at t=2s, recover at t=6s)")
	return rep
}

// registry is the experiment catalog, in run order. paper marks the
// experiments a bare benchrunner run regenerates (the paper's figures);
// extras (skew, faults) run by explicit -exp only.
var registry = []struct {
	id    string
	run   func(Options) *Report
	paper bool
}{
	{"fig2a", Fig2a, true}, {"fig2b", Fig2b, true}, {"fig2c", Fig2c, true},
	{"fig10", Fig10, true}, {"fig11", Fig11, true}, {"fig12", Fig12, true},
	{"fig13", Fig13, true}, {"fig14", Fig14, true}, {"fig15", Fig15, true},
	{"fig16", Fig16, true}, {"fig17", Fig17, true}, {"fig18", Fig18, true},
	{"fig19", Fig19, true},
	{"skew", Skew, false},
	{"faults", Faults, false},
}

// All runs every paper experiment in figure order.
func All(o Options) []*Report {
	var out []*Report
	for _, e := range registry {
		if e.paper {
			out = append(out, e.run(o))
		}
	}
	return out
}

// IDs returns every experiment id in run order — the single source the CLI
// builds its usage text and error messages from, so a new experiment can
// never drift out of the docs.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// ByID returns the named experiment runner.
func ByID(id string) (func(Options) *Report, bool) {
	for _, e := range registry {
		if e.id == id {
			return e.run, true
		}
	}
	return nil, false
}
