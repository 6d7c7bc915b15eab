package experiments

import (
	"fmt"

	"repro/internal/scenario"
)

// scenariosSample is an embedded scenario exercising the declarative
// harness end to end — fleet, open-loop load, a timed kill/recover, and
// assertions — through exactly the loader/compiler path cmd/scenario uses
// on the files in scenarios/. Inline so the experiment is
// cwd-independent.
const scenariosSample = `{
  "name": "sample-chaos-kill-recover-loaded",
  "description": "embedded sample: open-loop load with a mid-run kill/recover",
  "seed": 13,
  "replicas": 2,
  "fleet": {"workers": 4},
  "workload": {"profile": "img", "pattern": "open", "rpm": 330, "count": 90},
  "events": [
    {"at": "3s", "kind": "kill", "node": "w2"},
    {"at": "15s", "kind": "recover", "node": "w2"}
  ],
  "assertions": [
    {"kind": "completed_min", "value": 90},
    {"kind": "availability_min", "value": 0.9},
    {"kind": "recovered_min", "value": 1}
  ]
}`

// Scenarios runs the embedded sample scenario through the declarative
// harness (internal/scenario) and renders its assertions and counters.
// The committed scenario files in scenarios/ run under cmd/scenario and
// the CI scenarios job; this registry entry keeps the harness reachable
// from benchrunner like every other plane.
func Scenarios(o Options) *Report {
	rep := &Report{ID: "scenarios", Title: "declarative scenario harness (embedded sample)"}
	sp, err := scenario.Parse([]byte(scenariosSample), "embedded/sample-chaos-kill-recover-loaded.json")
	if err != nil {
		rep.Notes = append(rep.Notes, "scenario parse failed: "+err.Error())
		return rep
	}
	if o.Seed != 0 {
		sp.Seed = o.Seed
	}
	out, err := scenario.Run(sp, "embedded/sample-chaos-kill-recover-loaded.json")
	if err != nil {
		rep.Notes = append(rep.Notes, "scenario run failed: "+err.Error())
		return rep
	}
	at := &Table{
		Title:  fmt.Sprintf("%s: assertions (pass=%v)", out.Name, out.Pass),
		Header: []string{"kind", "observed", "bound", "pass"},
	}
	for _, ar := range out.Assertions {
		at.Rows = append(at.Rows, []string{
			ar.Kind, fmt.Sprintf("%g", ar.Observed), fmt.Sprintf("%g", ar.Bound),
			fmt.Sprintf("%v", ar.Pass),
		})
	}
	ct := &Table{
		Title:  "counters",
		Header: []string{"completed", "failed", "recovered", "replays", "p99 ms", "throughput rpm"},
		Rows: [][]string{{
			fmt.Sprintf("%d", out.Counters.Completed),
			fmt.Sprintf("%d", out.Counters.Failed),
			fmt.Sprintf("%d", out.Counters.Recovered),
			fmt.Sprintf("%d", out.Counters.Replays),
			fmt.Sprintf("%.1f", out.Counters.P99Ms),
			fmt.Sprintf("%.1f", out.Counters.ThroughputRPM),
		}},
	}
	rep.Tables = append(rep.Tables, at, ct)
	rep.Notes = append(rep.Notes,
		"not a paper figure: declarative scenario files live in scenarios/ and run via cmd/scenario (CI `scenarios` job)")
	return rep
}
