// Command benchrunner regenerates the paper's tables and figures.
//
// Usage:
//
//	benchrunner [-exp fig10] [-quick] [-seed 42]
//
// With no -exp flag it runs every paper experiment in figure order and
// prints the reports; the simulation plane runs on virtual time, so the same
// flags print the same bytes every run. The experiment list in the help text
// and error messages is generated from the experiments registry, so it can
// never drift.
// -obs appends the process's observability registry snapshot as JSON
// after the reports — what the runtime's own instruments counted while
// the experiments ran.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	ids := strings.Join(experiments.IDs(), ", ")
	exp := flag.String("exp", "", "experiment id ("+ids+"); empty = all paper figures")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast smoke run")
	seed := flag.Int64("seed", 0, "simulation seed (0 = default)")
	withObs := flag.Bool("obs", false, "print the observability registry snapshot (JSON) after the reports")
	flag.Parse()

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	start := time.Now()
	if *exp != "" {
		run, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have: %s)\n", *exp, ids)
			os.Exit(2)
		}
		fmt.Print(run(opts).String())
	} else {
		for _, rep := range experiments.All(opts) {
			fmt.Print(rep.String())
			fmt.Println()
		}
	}
	if *withObs {
		b, err := json.MarshalIndent(obs.Default().Snapshot(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(string(b))
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}
