package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/simcluster"
)

// Load reads and parses one scenario file (strict JSON: unknown fields are
// errors, so typos fail loudly instead of silently defaulting).
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, serrf(path, "", "%v", err)
	}
	return Parse(data, path)
}

// Parse parses and validates scenario JSON. name labels errors and
// defaults the scenario's Name (base name without extension).
func Parse(data []byte, name string) (*Spec, error) {
	if err := checkRetired(data, name); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, serrf(name, "", "%v", err)
	}
	if dec.More() {
		return nil, serrf(name, "", "trailing data after the scenario object")
	}
	if sp.Name == "" {
		base := filepath.Base(name)
		sp.Name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	if err := sp.validate(name); err != nil {
		return nil, err
	}
	return &sp, nil
}

// retired mirrors the fields of the tenant-and-QoS schema that scenario
// files no longer have: the qos block, the tenants pattern, flood events
// and tenant-scoped assertions.
type retired struct {
	QoS      json.RawMessage `json:"qos"`
	Workload struct {
		Pattern string          `json:"pattern"`
		Tenants json.RawMessage `json:"tenants"`
	} `json:"workload"`
	Events []struct {
		Kind string `json:"kind"`
	} `json:"events"`
	Asserts []struct {
		Kind   string          `json:"kind"`
		Tenant json.RawMessage `json:"tenant"`
	} `json:"assertions"`
}

// checkRetired refuses a file written for the tenant-and-QoS schema, naming
// what it still carries: such a file must not run silently without the
// plane it asked for. The strict decode that follows would refuse most of
// them too, but by the first unknown key, which need not name the feature.
// Malformed JSON is left to that decode to report.
func checkRetired(data []byte, name string) error {
	const gone = "was removed with the simulated QoS plane"
	var r retired
	_ = json.Unmarshal(data, &r)
	if r.QoS != nil {
		return serrf(name, "qos", "the qos block %s", gone)
	}
	if r.Workload.Pattern == "tenants" || r.Workload.Tenants != nil {
		return serrf(name, "workload.pattern", "the \"tenants\" pattern %s; use \"open\"", gone)
	}
	for i, ev := range r.Events {
		if ev.Kind == "flood" {
			return serrf(name, fmt.Sprintf("events[%d].kind", i), "the \"flood\" event %s", gone)
		}
	}
	for i, a := range r.Asserts {
		if a.Tenant != nil || strings.HasPrefix(a.Kind, "tenant_") {
			return serrf(name, fmt.Sprintf("assertions[%d].kind", i), "the tenant-scoped assertion %q %s", a.Kind, gone)
		}
	}
	return nil
}

// Run compiles and executes one validated spec and returns its report.
// file labels compile-time errors.
func Run(sp *Spec, file string) (*Report, error) {
	cfg, err := sp.compile(file)
	if err != nil {
		return nil, err
	}
	s := simcluster.New(*cfg)
	w := sp.Workload
	var res *simcluster.Result
	switch w.pattern() {
	case "skewed":
		res = s.RunSkewedOpenLoop(w.Rpm, w.Count, w.Skew)
	case "closed":
		res = s.RunClosedLoop(w.Clients, w.Window.D())
	default: // "open"
		res = s.RunOpenLoop(w.Rpm, w.Count)
	}
	return buildReport(sp, workers(cfg), res), nil
}

// workers is the compiled fleet size (mirrors the engine's defaulting).
func workers(cfg *simcluster.Config) int {
	if len(cfg.Fleet) > 0 {
		return len(cfg.Fleet)
	}
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return 3
}
