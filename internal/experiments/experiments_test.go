package experiments

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

var quick = Options{Quick: true}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tab.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "333") {
		t.Fatalf("bad render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestFig2aShares(t *testing.T) {
	rep := Fig2a(quick)
	if rep.ID != "fig2a" || len(rep.Tables) != 5 {
		t.Fatalf("tables = %d", len(rep.Tables))
	}
	summary := rep.Tables[4]
	shares := map[string]float64{}
	for _, row := range summary.Rows {
		shares[row[0]] = parseF(t, row[1])
	}
	// Paper ordering: wc > vid > svd > img.
	if !(shares["wc"] > shares["vid"] && shares["vid"] > shares["svd"] && shares["svd"] > shares["img"]) {
		t.Fatalf("comm share ordering broken: %v", shares)
	}
	if shares["wc"] < 70 {
		t.Fatalf("wc comm share %.1f%%, want > 70%%", shares["wc"])
	}
}

func TestFig2bOverlapOnlyForDataFlower(t *testing.T) {
	rep := Fig2b(quick)
	if len(rep.Tables) != 2 {
		t.Fatalf("tables = %d", len(rep.Tables))
	}
	// Notes record the overlap integrals; DataFlower's must exceed the
	// state machine's.
	var sm, df float64
	for _, n := range rep.Notes {
		var v float64
		if _, err := fmt.Sscanf(n, "StateMachine: CPU and network simultaneously busy for %f", &v); err == nil {
			sm = v
		}
		if _, err := fmt.Sscanf(n, "DataFlower: CPU and network simultaneously busy for %f", &v); err == nil {
			df = v
		}
	}
	if df <= sm {
		t.Fatalf("DataFlower overlap %.3fs not above state machine %.3fs", df, sm)
	}
}

func TestFig2cOverheadMagnitude(t *testing.T) {
	rep := Fig2c(quick)
	for _, row := range rep.Tables[0].Rows {
		ms := parseF(t, row[1])
		if ms < 40 || ms > 300 {
			t.Fatalf("%s overhead %.1fms, want around 63ms+", row[0], ms)
		}
	}
}

func TestFig10DataFlowerWinsP99(t *testing.T) {
	rep := Fig10(quick)
	// For every benchmark table and every load point, DataFlower's p99 must
	// be <= FaaSFlow's (columns: rpm, system, avg, p99, mem, failed).
	for _, tab := range rep.Tables {
		byLoad := map[string]map[string]float64{}
		memByLoad := map[string]map[string]float64{}
		for _, row := range tab.Rows {
			if byLoad[row[0]] == nil {
				byLoad[row[0]] = map[string]float64{}
				memByLoad[row[0]] = map[string]float64{}
			}
			byLoad[row[0]][row[1]] = parseF(t, row[3])
			memByLoad[row[0]][row[1]] = parseF(t, row[4])
		}
		for load, sys := range byLoad {
			if sys["DataFlower"] > sys["FaaSFlow"] {
				t.Errorf("%s @%s rpm: DataFlower p99 %.2f > FaaSFlow %.2f",
					tab.Title, load, sys["DataFlower"], sys["FaaSFlow"])
			}
		}
		for load, sys := range memByLoad {
			if sys["DataFlower"] > sys["FaaSFlow"] {
				t.Errorf("%s @%s rpm: DataFlower mem %.3f > FaaSFlow %.3f",
					tab.Title, load, sys["DataFlower"], sys["FaaSFlow"])
			}
		}
	}
}

func TestFig11PeakThroughputRatio(t *testing.T) {
	rep := Fig11(quick)
	for _, tab := range rep.Tables {
		peak := map[int]float64{} // column -> peak
		for _, row := range tab.Rows {
			for c := 1; c <= 3; c++ {
				v := parseF(t, row[c])
				if v > peak[c] {
					peak[c] = v
				}
			}
		}
		if peak[1] < peak[2] || peak[1] < peak[3] {
			t.Errorf("%s: DataFlower peak %.1f below FaaSFlow %.1f or SONIC %.1f",
				tab.Title, peak[1], peak[2], peak[3])
		}
	}
}

func TestFig12AwareAtLeastAsGood(t *testing.T) {
	rep := Fig12(quick)
	for _, tab := range rep.Tables {
		last := tab.Rows[len(tab.Rows)-1] // highest client count
		aware, non := parseF(t, last[1]), parseF(t, last[2])
		if aware < non*0.95 {
			t.Errorf("%s at %s clients: aware %.1f below non-aware %.1f", tab.Title, last[0], aware, non)
		}
	}
}

func TestFig13EarlyTriggering(t *testing.T) {
	rep := Fig13(quick)
	// Table order: DataFlower, FaaSFlow, SONIC. Compare merge trigger time.
	mergeTrig := func(tab *Table) float64 {
		for _, row := range tab.Rows {
			if row[0] == "merge" {
				return parseF(t, row[2])
			}
		}
		t.Fatalf("merge missing in %s", tab.Title)
		return 0
	}
	df := mergeTrig(rep.Tables[0])
	ff := mergeTrig(rep.Tables[1])
	so := mergeTrig(rep.Tables[2])
	if !(df < ff && ff < so) {
		t.Fatalf("merge trigger times df=%.3f ff=%.3f sonic=%.3f, want df < ff < sonic", df, ff, so)
	}
}

func TestFig14CacheReduction(t *testing.T) {
	rep := Fig14(quick)
	for _, tab := range rep.Tables {
		for _, row := range tab.Rows {
			df, ff := parseF(t, row[1]), parseF(t, row[2])
			if df > ff {
				t.Errorf("%s clients=%s: DataFlower cache %.3f above FaaSFlow %.3f",
					tab.Title, row[0], df, ff)
			}
		}
	}
}

func TestFig15SigmaOrdering(t *testing.T) {
	rep := Fig15(quick)
	sig := map[string]float64{}
	for _, row := range rep.Tables[0].Rows {
		sig[row[0]] = parseF(t, row[4])
	}
	if sig["DataFlower"] > sig["SONIC"] {
		t.Fatalf("sigma: DataFlower %.3f above SONIC %.3f", sig["DataFlower"], sig["SONIC"])
	}
}

func TestFig16DataFlowerWins(t *testing.T) {
	rep := Fig16(quick)
	for _, tab := range rep.Tables {
		for _, row := range tab.Rows {
			dfLat := parseF(t, strings.Split(row[1], " / ")[0])
			ffLat := parseF(t, strings.Split(row[2], " / ")[0])
			if dfLat > ffLat {
				t.Errorf("%s %s: DataFlower latency %.2f above FaaSFlow %.2f", tab.Title, row[0], dfLat, ffLat)
			}
		}
	}
}

func TestFig17ScaleUpMonotoneForDataFlower(t *testing.T) {
	rep := Fig17(quick)
	var dfT []float64
	for _, row := range rep.Tables[0].Rows {
		if row[1] == "DataFlower" {
			dfT = append(dfT, parseF(t, row[3]))
		}
	}
	if len(dfT) < 2 || dfT[len(dfT)-1] <= dfT[0] {
		t.Fatalf("DataFlower throughput did not grow with container size: %v", dfT)
	}
}

func TestFig18DataFlowerLowestLatency(t *testing.T) {
	rep := Fig18(quick)
	// Compare the "low" load row across systems per benchmark column.
	lowOf := func(tab *Table) []float64 {
		for _, row := range tab.Rows {
			if row[0] == "low" {
				var out []float64
				for c := 1; c <= 4; c++ {
					out = append(out, parseF(t, row[c]))
				}
				return out
			}
		}
		t.Fatal("low row missing")
		return nil
	}
	df := lowOf(rep.Tables[0])
	ff := lowOf(rep.Tables[1])
	for i := range df {
		if df[i] > ff[i]*1.05 {
			t.Errorf("benchmark col %d: DataFlower %.2f above FaaSFlow %.2f at low load", i, df[i], ff[i])
		}
	}
}

func TestFig19StatefulReduction(t *testing.T) {
	rep := Fig19(quick)
	for _, row := range rep.Tables[0].Rows {
		sm, df := parseF(t, row[1]), parseF(t, row[2])
		if df >= sm {
			t.Errorf("%s: DataFlower comm %.1fms not below state machine %.1fms", row[0], df, sm)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// TestByIDAndAll runs every registered experiment under Options{Quick: true}
// and compares the reports, in IDs() order, with testdata/quick.golden: the
// simulation plane runs on virtual time, so any byte that moves is a change
// in what the simulator computes. `go test ./internal/experiments -update`
// rewrites the file; its diff is the change's effect on every figure.
func TestByIDAndAll(t *testing.T) {
	if _, ok := ByID("fig13"); !ok {
		t.Fatal("fig13 missing")
	}
	if _, ok := ByID("bogus"); ok {
		t.Fatal("bogus present")
	}
	// All with Quick touches every paper experiment end to end; the extras
	// run by id.
	reports := All(quick)
	if len(reports) != 13 {
		t.Fatalf("reports = %d, want 13", len(reports))
	}
	byID := make(map[string]*Report, len(reports))
	for _, r := range reports {
		byID[r.ID] = r
	}
	var got strings.Builder
	for _, id := range IDs() {
		r, ok := byID[id]
		if !ok {
			run, _ := ByID(id)
			r = run(quick)
		}
		if r.String() == "" || len(r.Tables) == 0 {
			t.Fatalf("empty report %s", id)
		}
		got.WriteString(r.String())
		got.WriteByte('\n')
	}
	const golden = "testdata/quick.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s:%d differs (rerun with -update and diff the file):\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}

func TestIDsCoverRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 15 {
		t.Fatalf("IDs() = %d entries, want 15", len(ids))
	}
	for _, id := range ids {
		if _, ok := ByID(id); !ok {
			t.Fatalf("IDs lists %q but ByID cannot resolve it", id)
		}
	}
	// The extras must be addressable even though All skips them.
	for _, extra := range []string{"skew", "faults"} {
		if _, ok := ByID(extra); !ok {
			t.Fatalf("extra experiment %q missing from registry", extra)
		}
	}
}

func TestFaultsReportsRecoveryForAllBenchmarks(t *testing.T) {
	rep := Faults(quick)
	rows := rep.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("faults rows = %d, want the 4 paper workflows", len(rows))
	}
	for _, row := range rows {
		issued, completed := parseF(t, row[1]), parseF(t, row[2])
		if completed < issued*0.95 {
			t.Errorf("%s: availability %v/%v below 95%%", row[0], completed, issued)
		}
		if recovered := parseF(t, row[4]); recovered == 0 {
			t.Errorf("%s: no recovered requests reported", row[0])
		}
	}
}
