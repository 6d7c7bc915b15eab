// Package scenario is the declarative robustness harness over the
// simulation plane: JSON scenario files describe a fleet, a workload, a
// timed fault schedule, and assertions over the run's Result, and the
// runner compiles them onto simcluster.Config, drives the run in virtual
// time, and emits a machine-readable report. A seeded stress mode expands
// weighted node templates into large fleets (1000+ nodes) with
// randomized-but-deterministic chaos, so the same scenario file and seed
// always produce a byte-identical report. cmd/scenario is the CLI;
// `-exp scenarios` on cmd/benchrunner runs an embedded sample through the
// same path.
package scenario

import (
	"encoding/json"
	"fmt"
	"time"
)

// Error is a scenario problem with file/field context: which file, which
// field, what's wrong. Compile surfaces simcluster.ConfigError through it,
// so a bad scenario always points at its source.
type Error struct {
	// File is the scenario's source (file path, or a logical name for
	// embedded specs).
	File string
	// Field names the offending field, dotted ("workload.pattern",
	// "events[2].node"). Empty when the whole file is the problem.
	Field string
	// Msg explains the violation.
	Msg string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Field == "" {
		return "scenario " + e.File + ": " + e.Msg
	}
	return "scenario " + e.File + ": " + e.Field + ": " + e.Msg
}

// serrf builds a *Error.
func serrf(file, field, format string, args ...any) *Error {
	return &Error{File: file, Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Dur is a time.Duration that unmarshals from Go duration strings ("150ms",
// "2s", "1m30s") and marshals back to them.
type Dur time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Dur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("want a duration string like \"2s\", have %s", b)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("bad duration %q: %v", s, err)
	}
	*d = Dur(v)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// D converts to time.Duration.
func (d Dur) D() time.Duration { return time.Duration(d) }

// Spec is one parsed scenario file.
type Spec struct {
	// Name identifies the scenario in reports (defaults to the file's
	// base name without extension).
	Name string `json:"name,omitempty"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// System selects the engine under test: "dataflower" (default),
	// "dataflower-nonaware", "faasflow", "sonic", "statemachine". Fault
	// events need the DataFlower kinds.
	System string `json:"system,omitempty"`
	// Seed drives arrivals and all scenario randomness (stress fleets,
	// chaos times). Defaults to 42.
	Seed int64 `json:"seed,omitempty"`
	// Replicas places every function on that many consecutive nodes
	// (cluster.RoundRobin); 0/1 is the classic single-primary placement.
	Replicas int `json:"replicas,omitempty"`

	Fleet    FleetSpec    `json:"fleet,omitempty"`
	Workload WorkloadSpec `json:"workload"`
	Events   []EventSpec  `json:"events,omitempty"`
	Asserts  []AssertSpec `json:"assertions,omitempty"`
	Stress   *StressSpec  `json:"stress,omitempty"`
}

// FleetSpec shapes the worker fleet.
type FleetSpec struct {
	// Workers is the node count when Templates is empty (default 3).
	Workers int `json:"workers,omitempty"`
	// NodeNICBps/DiskBps are the cluster-wide bandwidth defaults in
	// bytes/second (template fields override per node).
	NodeNICBps float64 `json:"node_nic_bps,omitempty"`
	DiskBps    float64 `json:"disk_bps,omitempty"`
	// MemMB is the container memory spec; MaxContainersPerFn bounds
	// scale-out per function.
	MemMB              int `json:"mem_mb,omitempty"`
	MaxContainersPerFn int `json:"max_containers_per_fn,omitempty"`
	// Templates draws each worker's hardware shape from this weighted set
	// (deterministically, from the scenario seed). Workers (or
	// stress.nodes) gives the count.
	Templates []NodeTemplate `json:"templates,omitempty"`
}

// NodeTemplate is one weighted hardware shape.
type NodeTemplate struct {
	Name string `json:"name"`
	// Weight is the template's draw weight (default 1).
	Weight float64 `json:"weight,omitempty"`
	// NICBps/DiskBps shape drawn nodes; zero falls back to the fleet
	// defaults.
	NICBps  float64 `json:"nic_bps,omitempty"`
	DiskBps float64 `json:"disk_bps,omitempty"`
}

// WorkloadSpec selects profile and arrival pattern.
type WorkloadSpec struct {
	// Profile is the benchmark: "img", "vid", "svd", "wc".
	Profile string `json:"profile"`
	// Fanout/InputSize parameterize the profile (0 keeps the paper
	// defaults).
	Fanout    int   `json:"fanout,omitempty"`
	InputSize int64 `json:"input_size,omitempty"`
	// Colocated deploys extra benchmarks on the same cluster.
	Colocated []string `json:"colocated,omitempty"`
	// Pattern is the arrival discipline: "open" (default; rpm+count),
	// "skewed" (rpm+count+skew over primary+colocated), "closed"
	// (clients+window).
	Pattern string  `json:"pattern,omitempty"`
	Rpm     float64 `json:"rpm,omitempty"`
	Count   int     `json:"count,omitempty"`
	// Skew is the Zipf s parameter for "skewed" (<=1 defaults to 1.5).
	Skew float64 `json:"skew,omitempty"`
	// Clients/Window drive "closed".
	Clients int `json:"clients,omitempty"`
	Window  Dur `json:"window,omitempty"`
}

// EventSpec is one timed fault event: Kind is "kill", "recover" or
// "drain", and Node names its target ("w1".."wN").
type EventSpec struct {
	At   Dur    `json:"at"`
	Kind string `json:"kind"`
	Node string `json:"node,omitempty"`
}

// AssertSpec is one bound over the run's Result. Kind selects the observed
// metric (see Assertions() for the registry); Value carries numeric bounds,
// Bound duration bounds.
type AssertSpec struct {
	Kind  string  `json:"kind"`
	Value float64 `json:"value,omitempty"`
	Bound Dur     `json:"bound,omitempty"`
}

// StressSpec expands the scenario into a seeded large-fleet chaos run: the
// fleet is drawn from fleet.templates (uniform when absent) at Nodes
// workers, and FailureRate of them are killed at KillSpacing intervals from
// Start, each recovering RecoverAfter later. All draws come from the
// scenario seed, so the same file and seed give an identical schedule.
type StressSpec struct {
	// Nodes is the fleet size (>= 1).
	Nodes int `json:"nodes"`
	// FailureRate is the fraction of nodes killed over the run [0,1].
	FailureRate float64 `json:"failure_rate,omitempty"`
	// Start is when chaos begins; KillSpacing the gap between kills;
	// RecoverAfter each victim's outage duration (0 means no recovery).
	Start        Dur `json:"start,omitempty"`
	KillSpacing  Dur `json:"kill_spacing,omitempty"`
	RecoverAfter Dur `json:"recover_after,omitempty"`
}
