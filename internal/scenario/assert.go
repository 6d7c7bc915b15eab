package scenario

import (
	"fmt"

	"repro/internal/simcluster"
)

// AssertionKind documents one registered assertion (cmd/scenario -list).
type AssertionKind struct {
	Name string
	Doc  string
	// Duration marks kinds whose bound is the `bound` duration field
	// (compared in milliseconds); the rest bound the numeric `value`.
	Duration bool
	// Min marks floor assertions (observed >= bound); the rest are
	// ceilings (observed <= bound).
	Min bool

	obs func(res *simcluster.Result) (float64, error)
}

// kinds is the assertion registry, in -list order. Observed values for
// duration kinds are milliseconds.
var kinds = []AssertionKind{
	{Name: "completed_min", Doc: "completed requests >= value", Min: true,
		obs: func(r *simcluster.Result) (float64, error) { return float64(r.Completed), nil }},
	{Name: "failed_max", Doc: "failed requests <= value",
		obs: func(r *simcluster.Result) (float64, error) { return float64(r.Failed), nil }},
	{Name: "availability_min", Doc: "completed/(completed+failed) >= value", Min: true,
		obs: func(r *simcluster.Result) (float64, error) {
			total := r.Completed + r.Failed
			if total == 0 {
				return 0, fmt.Errorf("no requests finished")
			}
			return float64(r.Completed) / float64(total), nil
		}},
	{Name: "throughput_min", Doc: "completed requests per simulated minute >= value", Min: true,
		obs: func(r *simcluster.Result) (float64, error) { return r.ThroughputRPM, nil }},
	{Name: "p50_max", Doc: "median end-to-end latency <= bound", Duration: true,
		obs: latencyObs(func(r *simcluster.Result) float64 { return r.Latencies.P50() })},
	{Name: "p99_max", Doc: "p99 end-to-end latency <= bound", Duration: true,
		obs: latencyObs(func(r *simcluster.Result) float64 { return r.Latencies.P99() })},
	{Name: "avg_max", Doc: "mean end-to-end latency <= bound", Duration: true,
		obs: latencyObs(func(r *simcluster.Result) float64 { return r.Latencies.Mean() })},
	{Name: "containers_max", Doc: "containers started <= value",
		obs: func(r *simcluster.Result) (float64, error) { return float64(r.Containers), nil }},
	{Name: "mem_gbs_per_req_max", Doc: "container-memory GB*s per completed request <= value",
		obs: func(r *simcluster.Result) (float64, error) { return r.MemGBsPerReq, nil }},
	{Name: "recovered_min", Doc: "requests that survived a node kill >= value", Min: true,
		obs: func(r *simcluster.Result) (float64, error) { return float64(r.Recovered), nil }},
	{Name: "replays_max", Doc: "re-executed shipments <= value",
		obs: func(r *simcluster.Result) (float64, error) { return float64(r.Replays), nil }},
	{Name: "recovery_p99_max", Doc: "p99 kill-to-completion latency <= bound", Duration: true,
		obs: func(r *simcluster.Result) (float64, error) {
			if r.RecoveryLat == nil || r.RecoveryLat.Count() == 0 {
				return 0, fmt.Errorf("no recoveries sampled")
			}
			return r.RecoveryLat.P99() * 1000, nil
		}},
}

// kindByName indexes the registry.
var kindByName = func() map[string]*AssertionKind {
	m := make(map[string]*AssertionKind, len(kinds))
	for i := range kinds {
		m[kinds[i].Name] = &kinds[i]
	}
	return m
}()

// Assertions returns the registered assertion kinds.
func Assertions() []AssertionKind { return kinds }

// latencyObs samples the global latency distribution (seconds -> ms).
func latencyObs(f func(*simcluster.Result) float64) func(*simcluster.Result) (float64, error) {
	return func(r *simcluster.Result) (float64, error) {
		if r.Latencies == nil || r.Latencies.Count() == 0 {
			return 0, fmt.Errorf("no latencies sampled")
		}
		return f(r) * 1000, nil
	}
}

// validate checks one assertion's shape against its kind.
func (a AssertSpec) validate() error {
	k := kindByName[a.Kind]
	if k == nil {
		return fmt.Errorf("unknown assertion kind %q (run cmd/scenario -list)", a.Kind)
	}
	if k.Duration && a.Bound <= 0 {
		return fmt.Errorf("kind %q needs a positive `bound` duration", a.Kind)
	}
	if !k.Duration && a.Bound != 0 {
		return fmt.Errorf("kind %q bounds the numeric `value`, not a duration", a.Kind)
	}
	if !k.Duration && a.Value < 0 {
		return fmt.Errorf("kind %q needs a non-negative `value`", a.Kind)
	}
	return nil
}

// bound resolves the assertion's bound in the kind's unit (ms for duration
// kinds).
func (a AssertSpec) bound(k *AssertionKind) float64 {
	if k.Duration {
		return float64(a.Bound.D().Milliseconds())
	}
	return a.Value
}

// AssertionResult is one evaluated assertion in a report.
type AssertionResult struct {
	Kind     string  `json:"kind"`
	Observed float64 `json:"observed"`
	Bound    float64 `json:"bound"`
	Pass     bool    `json:"pass"`
	// Detail is the human-readable observed-vs-bound line ("observed
	// 0.93 >= bound 0.9"), or the evaluation error.
	Detail string `json:"detail"`
}

// evaluate runs every assertion against the result. Spec validation already
// guaranteed the kinds exist.
func evaluate(asserts []AssertSpec, res *simcluster.Result) []AssertionResult {
	out := make([]AssertionResult, 0, len(asserts))
	for _, a := range asserts {
		k := kindByName[a.Kind]
		ar := AssertionResult{Kind: a.Kind, Bound: a.bound(k)}
		obs, err := k.obs(res)
		if err != nil {
			ar.Detail = "unevaluable: " + err.Error()
			out = append(out, ar)
			continue
		}
		ar.Observed = round3(obs)
		op := "<="
		ar.Pass = ar.Observed <= ar.Bound
		if k.Min {
			op = ">="
			ar.Pass = ar.Observed >= ar.Bound
		}
		ar.Detail = fmt.Sprintf("observed %s %s bound %s", fmtNum(ar.Observed), op, fmtNum(ar.Bound))
		out = append(out, ar)
	}
	return out
}

// fmtNum renders a report number compactly and deterministically.
func fmtNum(v float64) string { return fmt.Sprintf("%g", v) }
