package scenario

import (
	"encoding/json"
	"math"

	"repro/internal/obs"
	"repro/internal/simcluster"
)

// Report is one scenario's machine-readable outcome: identity, pass/fail,
// the run's headline counters, and every assertion's observed-vs-bound. It
// contains no wall-clock timestamps or absolute paths, so the same scenario
// and seed always marshal to identical bytes — CI diffs reports across runs.
type Report struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	System      string `json:"system"`
	Benchmark   string `json:"benchmark"`
	Seed        int64  `json:"seed"`
	Workers     int    `json:"workers"`
	Pass        bool   `json:"pass"`

	Counters   Counters          `json:"counters"`
	Assertions []AssertionResult `json:"assertions,omitempty"`
}

// Counters are the run's headline metrics. Latencies are milliseconds.
type Counters struct {
	Completed     int64   `json:"completed"`
	Failed        int64   `json:"failed"`
	Availability  float64 `json:"availability"`
	ThroughputRPM float64 `json:"throughput_rpm"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MeanMs        float64 `json:"mean_ms"`
	Containers    int64   `json:"containers"`
	MemGBsPerReq  float64 `json:"mem_gbs_per_req"`
	// Fault-plane counters (zero on fault-free runs).
	Recovered     int64   `json:"recovered"`
	Replays       int64   `json:"replays"`
	RecoveryP99Ms float64 `json:"recovery_p99_ms"`
	// SimDuration is the virtual makespan.
	SimDuration string `json:"sim_duration"`
}

// Suite wraps one runner invocation's reports (the CI artifact).
type Suite struct {
	Pass      bool      `json:"pass"`
	Scenarios []*Report `json:"scenarios"`

	// Obs is the process-wide observability registry snapshot taken after
	// the last scenario (cmd/scenario -obs). It accumulates across every
	// scenario in the suite and may contain timing-dependent series, so it
	// is off by default — CI's byte-identical determinism diff relies on
	// the default report carrying no nondeterministic fields.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// MarshalIndent renders the suite as stable, indented JSON.
func (s *Suite) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// round3 rounds to 3 decimals for tidy reports (deterministic: same input,
// same output).
func round3(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1000) / 1000
}

// buildReport assembles a Report from a finished run.
func buildReport(sp *Spec, workers int, res *simcluster.Result) *Report {
	rep := &Report{
		Name:        sp.Name,
		Description: sp.Description,
		System:      res.System,
		Benchmark:   res.Benchmark,
		Seed:        sp.seed(),
		Workers:     workers,
		Counters:    buildCounters(res),
	}
	rep.Assertions = evaluate(sp.Asserts, res)
	rep.Pass = true
	for _, ar := range rep.Assertions {
		if !ar.Pass {
			rep.Pass = false
		}
	}
	return rep
}

// buildCounters extracts the headline metrics.
func buildCounters(res *simcluster.Result) Counters {
	c := Counters{
		Completed:     res.Completed,
		Failed:        res.Failed,
		ThroughputRPM: round3(res.ThroughputRPM),
		Containers:    res.Containers,
		MemGBsPerReq:  round3(res.MemGBsPerReq),
		Recovered:     res.Recovered,
		Replays:       res.Replays,
		SimDuration:   res.SimDuration.String(),
	}
	if total := res.Completed + res.Failed; total > 0 {
		c.Availability = round3(float64(res.Completed) / float64(total))
	}
	if res.Latencies != nil && res.Latencies.Count() > 0 {
		c.P50Ms = round3(res.Latencies.P50() * 1000)
		c.P99Ms = round3(res.Latencies.P99() * 1000)
		c.MeanMs = round3(res.Latencies.Mean() * 1000)
	}
	if res.RecoveryLat != nil && res.RecoveryLat.Count() > 0 {
		c.RecoveryP99Ms = round3(res.RecoveryLat.P99() * 1000)
	}
	return c
}
