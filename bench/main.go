// Command bench is the repository's benchmark: four closed-loop workloads
// against the runtime plane in its default configuration, every response
// verified, reported as end-to-end metrics (untraced) or per-layer metrics
// (traced, measured from outside the engine). See README.md.
//
//	go run ./bench -workload chain-closed -seed 1 -seconds 30 -trace 0
//	go run ./bench                       # all four workloads, one document
//	go run ./bench -trace 1              # the traced run of all four
//	go run ./bench -compare A.json B.json
//	go run ./bench -selfcheck
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics; without it the output is
// one JSON document of all four workloads plus the machine fingerprint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	maybeWorker()
	workloadName := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "payload generator seed")
	seconds := flag.Int("seconds", 30, "length of the timed window")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
	doCompare := flag.Bool("compare", false, "compare the two documents named as arguments")
	doSelfcheck := flag.Bool("selfcheck", false, "run the full set twice, three runs per workload each, and compare the medians")
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace == 1, *doCompare, *doSelfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, trace bool, doCompare, doSelfcheck bool) error {
	switch {
	case doCompare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two document paths")
		}
		a, err := readDocument(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readDocument(flag.Arg(1))
		if err != nil {
			return err
		}
		regressed, err := compare(os.Stdout, a, b)
		if err == nil && regressed {
			err = fmt.Errorf("%s is outside a bound of %s", flag.Arg(1), flag.Arg(0))
		}
		return err
	case doSelfcheck:
		ok, err := selfcheck(os.Stdout, seed, seconds)
		if err == nil && !ok {
			err = fmt.Errorf("two sets of runs of the same code disagree beyond the benchmark's bounds")
		}
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	o := runOpts{seed: seed, window: time.Duration(seconds) * time.Second, trace: trace}
	doc := &document{Fingerprint: readFingerprint(seed, float64(seconds)), Trace: trace, Workloads: map[string]*result{}}
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		fp, err := json.Marshal(doc.Fingerprint)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: fingerprint %s\n", fp)
		res, err := w.run(o)
		if err != nil {
			return err
		}
		if !trace {
			res = res.driverLine()
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	allCorrect := true
	for _, w := range workloads {
		res, err := w.run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		doc.Workloads[w.name] = res
		allCorrect = allCorrect && res.Correct
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	if !allCorrect {
		return fmt.Errorf("a workload failed requests or drained dirty")
	}
	return nil
}
