// Command scenario runs declarative scenario files over the simulation
// plane and reports assertion outcomes.
//
// Usage:
//
//	scenario [-out report.json] [-seed N] [-v] scenarios/*.json
//	scenario -list
//
// Each file describes a fleet, a workload, a timed fault schedule,
// and assertions over the run's result (see README.md "Scenario files").
// The runner executes them in order on virtual time — runs are
// deterministic, so the same files and seeds always produce byte-identical
// reports (-obs appends the process's observability registry snapshot,
// which waives that guarantee) — and exits non-zero if any assertion
// fails, printing each
// failure's observed-vs-bound line. -list prints the registered event and
// assertion kinds straight from the scenario package's registries, so the
// help text can never drift from the code.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/scenario"
)

func main() {
	list := flag.Bool("list", false, "print registered event and assertion kinds, then exit")
	out := flag.String("out", "", "write the suite report JSON to this file (default stdout)")
	seed := flag.Int64("seed", 0, "override every scenario's seed (0 = keep the files' seeds)")
	verbose := flag.Bool("v", false, "print every assertion line, not just failures")
	withObs := flag.Bool("obs", false, "append the observability registry snapshot to the suite report (may be nondeterministic)")
	flag.Parse()

	if *list {
		printList()
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: scenario [-out report.json] [-seed N] [-v] file.json...")
		fmt.Fprintln(os.Stderr, "       scenario -list")
		os.Exit(2)
	}

	suite := &scenario.Suite{Pass: true}
	for _, path := range flag.Args() {
		sp, err := scenario.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *seed != 0 {
			sp.Seed = *seed
		}
		rep, err := scenario.Run(sp, path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if !rep.Pass {
			suite.Pass = false
		}
		suite.Scenarios = append(suite.Scenarios, rep)
		printReport(rep, *verbose)
	}

	if *withObs {
		snap := obs.Default().Snapshot()
		suite.Obs = &snap
	}

	data, err := suite.MarshalIndent()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		os.Stdout.Write(data)
	}
	if !suite.Pass {
		fmt.Fprintln(os.Stderr, "FAIL: assertion failures (see above)")
		os.Exit(1)
	}
}

// printReport prints one scenario's outcome; failures always show their
// observed-vs-bound detail.
func printReport(rep *scenario.Report, verbose bool) {
	status := "PASS"
	if !rep.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(os.Stderr, "%s %s (%s/%s, %d workers, seed %d): %d completed, %d failed\n",
		status, rep.Name, rep.System, rep.Benchmark, rep.Workers, rep.Seed,
		rep.Counters.Completed, rep.Counters.Failed)
	for _, ar := range rep.Assertions {
		if ar.Pass && !verbose {
			continue
		}
		mark := "ok"
		if !ar.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(os.Stderr, "  %-4s %-28s %s\n", mark, ar.Kind, ar.Detail)
	}
}

// printList renders the event and assertion registries.
func printList() {
	fmt.Println("systems:")
	for _, s := range scenario.SystemNames() {
		fmt.Printf("  %s\n", s)
	}
	fmt.Println("\nevent kinds (events[].kind):")
	for _, e := range scenario.Events() {
		fmt.Printf("  %-10s %s\n", e.Name, e.Doc)
	}
	fmt.Println("\nassertion kinds (assertions[].kind):")
	for _, a := range scenario.Assertions() {
		bound := "value"
		if a.Duration {
			bound = "bound"
		}
		fmt.Printf("  %-22s %s [%s]\n", a.Name, a.Doc, bound)
	}
}
