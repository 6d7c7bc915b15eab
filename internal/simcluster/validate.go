package simcluster

import (
	"fmt"

	"repro/internal/workloads"
)

// ConfigError reports one invalid Config field with enough context for a
// caller assembling configs from external input (the scenario harness) to
// point at the offending field.
type ConfigError struct {
	// Field names the offending Config field, with an index where the field
	// is a slice ("Faults[2].Node").
	Field string
	// Msg explains the violation.
	Msg string
}

// Error implements error.
func (e *ConfigError) Error() string { return "simcluster: Config." + e.Field + ": " + e.Msg }

// errf builds a *ConfigError.
func errf(field, format string, args ...any) *ConfigError {
	return &ConfigError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks the config before a run and returns a typed *ConfigError
// for the first violation found, instead of letting a bad field panic or
// silently misbehave mid-run (a fault event targeting an out-of-range
// worker used to be dropped without a word). New calls it and panics on
// error — the contract for programmatic misuse — while the scenario loader
// calls it directly and surfaces the error with file/field context.
func (c Config) Validate() error {
	if c.Profile == nil {
		return errf("Profile", "required")
	}
	if c.Workers < 0 {
		return errf("Workers", "negative worker count %d", c.Workers)
	}
	for i, sp := range c.Fleet {
		if sp.NICBps < 0 {
			return errf(fmt.Sprintf("Fleet[%d].NICBps", i), "negative bandwidth %g", sp.NICBps)
		}
		if sp.DiskBps < 0 {
			return errf(fmt.Sprintf("Fleet[%d].DiskBps", i), "negative bandwidth %g", sp.DiskBps)
		}
	}
	if c.MemMB < 0 {
		return errf("MemMB", "negative container memory %d", c.MemMB)
	}
	if c.MaxContainersPerFn < 0 {
		return errf("MaxContainersPerFn", "negative cap %d", c.MaxContainersPerFn)
	}
	rates := []struct {
		field string
		v     float64
	}{
		{"NodeNICBps", c.NodeNICBps}, {"DiskBps", c.DiskBps},
	}
	for _, r := range rates {
		if r.v < 0 {
			return errf(r.field, "negative rate %g", r.v)
		}
	}
	if c.RequestTimeout < 0 {
		return errf("RequestTimeout", "negative duration %s", c.RequestTimeout)
	}
	seen := make(map[string]string)
	profs := append([]*workloads.Profile{}, c.Profile)
	for i, p := range c.Colocated {
		if p == nil {
			return errf(fmt.Sprintf("Colocated[%d]", i), "nil profile")
		}
		profs = append(profs, p)
	}
	for _, p := range profs {
		for _, f := range p.Workflow.Functions {
			if prev, dup := seen[f.Name]; dup {
				return errf("Colocated",
					"duplicate function name %q across colocated workflows (%s and %s)", f.Name, prev, p.Name)
			}
			seen[f.Name] = p.Name
		}
	}
	workers := c.Workers
	if len(c.Fleet) > 0 {
		workers = len(c.Fleet)
	}
	if workers == 0 {
		workers = 3 // withDefaults
	}
	if len(c.Faults) > 0 && c.Kind != DataFlower && c.Kind != DataFlowerNonAware {
		return errf("Faults", "fault schedules are supported for the DataFlower kinds only (have %s)", c.Kind)
	}
	for i, fe := range c.Faults {
		if fe.At < 0 {
			return errf(fmt.Sprintf("Faults[%d].At", i), "negative virtual time %s", fe.At)
		}
		if fe.Kind < KillNode || fe.Kind > DrainNode {
			return errf(fmt.Sprintf("Faults[%d].Kind", i), "unknown fault kind %d", int(fe.Kind))
		}
		if !validWorkerName(fe.Node, workers) {
			return errf(fmt.Sprintf("Faults[%d].Node", i),
				"node %q out of range (workers are %q..%q)", fe.Node, "w1", fmt.Sprintf("w%d", workers))
		}
	}
	return nil
}

// validWorkerName reports whether name is "w<i>" with 1 <= i <= workers.
func validWorkerName(name string, workers int) bool {
	if len(name) < 2 || name[0] != 'w' {
		return false
	}
	idx := 0
	for _, r := range name[1:] {
		if r < '0' || r > '9' {
			return false
		}
		idx = idx*10 + int(r-'0')
		if idx > workers {
			return false
		}
	}
	return idx >= 1
}
