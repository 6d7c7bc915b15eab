package scenario

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/simcluster"
	"repro/internal/workloads"
)

// systems maps scenario system names onto engine kinds.
var systems = map[string]simcluster.Kind{
	"dataflower":          simcluster.DataFlower,
	"dataflower-nonaware": simcluster.DataFlowerNonAware,
	"faasflow":            simcluster.FaaSFlow,
	"sonic":               simcluster.SONIC,
	"statemachine":        simcluster.StateMachine,
}

// SystemNames lists the accepted system values, sorted.
func SystemNames() []string {
	names := make([]string, 0, len(systems))
	for n := range systems {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EventKind documents one registered event kind (cmd/scenario -list).
type EventKind struct {
	Name string
	Doc  string
}

// eventKinds is the timed-event registry: what a scenario's events[] may
// schedule. Every kind compiles onto Config.Faults.
var eventKinds = []EventKind{
	{"kill", "take node down at `at`: containers die, sink wiped, lost work replayed (needs node)"},
	{"recover", "return a killed/draining node to service, empty (needs node)"},
	{"drain", "stop new request pins on node; in-flight work completes in place (needs node)"},
}

// Events returns the registered event kinds.
func Events() []EventKind { return eventKinds }

// faultKinds maps fault event names onto simcluster kinds.
var faultKinds = map[string]simcluster.FaultKind{
	"kill":    simcluster.KillNode,
	"recover": simcluster.RecoverNode,
	"drain":   simcluster.DrainNode,
}

// patterns is the arrival-discipline set.
var patterns = map[string]bool{"open": true, "skewed": true, "closed": true}

// profileFor builds the parameterized benchmark profile.
func profileFor(name string, fanout int, inputSize int64) (*workloads.Profile, error) {
	switch name {
	case "img":
		return workloads.ImageProcessing(inputSize), nil
	case "vid":
		return workloads.VideoFFmpeg(fanout, inputSize), nil
	case "svd":
		return workloads.SVD(fanout, inputSize), nil
	case "wc":
		if fanout <= 0 {
			fanout = 4
		}
		return workloads.WordCount(fanout, inputSize), nil
	}
	return nil, fmt.Errorf("unknown profile %q (want img, vid, svd or wc)", name)
}

// validate checks the spec's own shape — everything diagnosable before
// compilation — and returns a *Error with file/field context.
func (sp *Spec) validate(file string) error {
	if _, ok := systems[sp.systemName()]; !ok {
		return serrf(file, "system", "unknown system %q (want one of %v)", sp.System, SystemNames())
	}
	if sp.Replicas < 0 {
		return serrf(file, "replicas", "negative replica count %d", sp.Replicas)
	}
	if err := sp.Fleet.validate(); err != nil {
		var e *Error
		if errors.As(err, &e) {
			e.File = file
			return e
		}
		return serrf(file, "fleet", "%v", err)
	}
	if err := sp.Workload.validate(); err != nil {
		var e *Error
		if errors.As(err, &e) {
			e.File = file
			return e
		}
		return serrf(file, "workload", "%v", err)
	}
	for i, ev := range sp.Events {
		field := fmt.Sprintf("events[%d]", i)
		if ev.At < 0 {
			return serrf(file, field+".at", "negative virtual time %s", ev.At.D())
		}
		switch ev.Kind {
		case "kill", "recover", "drain":
			if ev.Node == "" {
				return serrf(file, field+".node", "%s events need a node (\"w1\"..\"wN\")", ev.Kind)
			}
			if k := systems[sp.systemName()]; k != simcluster.DataFlower && k != simcluster.DataFlowerNonAware {
				return serrf(file, field+".kind", "fault events need a DataFlower system (have %q)", sp.systemName())
			}
		default:
			return serrf(file, field+".kind", "unknown event kind %q (run cmd/scenario -list)", ev.Kind)
		}
	}
	for i, a := range sp.Asserts {
		if err := a.validate(); err != nil {
			return serrf(file, fmt.Sprintf("assertions[%d]", i), "%v", err)
		}
	}
	if st := sp.Stress; st != nil {
		if st.Nodes < 1 {
			return serrf(file, "stress.nodes", "need at least 1 node (have %d)", st.Nodes)
		}
		if st.FailureRate < 0 || st.FailureRate > 1 {
			return serrf(file, "stress.failure_rate", "want a fraction in [0,1] (have %g)", st.FailureRate)
		}
		if st.Start < 0 || st.KillSpacing < 0 || st.RecoverAfter < 0 {
			return serrf(file, "stress", "negative durations")
		}
		if k := systems[sp.systemName()]; st.FailureRate > 0 && k != simcluster.DataFlower && k != simcluster.DataFlowerNonAware {
			return serrf(file, "stress.failure_rate", "chaos needs a DataFlower system (have %q)", sp.systemName())
		}
	}
	return nil
}

// validate checks the fleet block.
func (f *FleetSpec) validate() error {
	if f.Workers < 0 {
		return serrf("", "fleet.workers", "negative worker count %d", f.Workers)
	}
	if f.NodeNICBps < 0 || f.DiskBps < 0 {
		return serrf("", "fleet", "negative bandwidth")
	}
	if f.MemMB < 0 || f.MaxContainersPerFn < 0 {
		return serrf("", "fleet", "negative container spec")
	}
	total := 0.0
	for i, t := range f.Templates {
		field := fmt.Sprintf("fleet.templates[%d]", i)
		if t.Name == "" {
			return serrf("", field+".name", "templates need names")
		}
		if t.Weight < 0 {
			return serrf("", field+".weight", "negative weight %g", t.Weight)
		}
		if t.NICBps < 0 || t.DiskBps < 0 {
			return serrf("", field, "negative bandwidth")
		}
		w := t.Weight
		if w == 0 {
			w = 1
		}
		total += w
	}
	if len(f.Templates) > 0 && total <= 0 {
		return serrf("", "fleet.templates", "total template weight must be positive")
	}
	return nil
}

// validate checks the workload block.
func (w *WorkloadSpec) validate() error {
	if w.Profile == "" {
		return serrf("", "workload.profile", "required (img, vid, svd or wc)")
	}
	if _, err := profileFor(w.Profile, w.Fanout, w.InputSize); err != nil {
		return serrf("", "workload.profile", "%v", err)
	}
	for i, c := range w.Colocated {
		if _, err := profileFor(c, 0, 0); err != nil {
			return serrf("", fmt.Sprintf("workload.colocated[%d]", i), "%v", err)
		}
	}
	if w.Fanout < 0 || w.InputSize < 0 {
		return serrf("", "workload", "negative fanout/input_size")
	}
	p := w.pattern()
	if !patterns[p] {
		return serrf("", "workload.pattern", "unknown pattern %q (want open, skewed or closed)", w.Pattern)
	}
	switch p {
	case "open", "skewed":
		if w.Rpm <= 0 || w.Count <= 0 {
			return serrf("", "workload", "pattern %q needs positive rpm and count (have rpm=%g count=%d)", p, w.Rpm, w.Count)
		}
		if p == "skewed" && len(w.Colocated) == 0 {
			return serrf("", "workload.colocated", "pattern \"skewed\" needs colocated workflows to skew over")
		}
	case "closed":
		if w.Clients <= 0 || w.Window <= 0 {
			return serrf("", "workload", "pattern \"closed\" needs positive clients and window")
		}
	}
	return nil
}

// systemName resolves the system default.
func (sp *Spec) systemName() string {
	if sp.System == "" {
		return "dataflower"
	}
	return sp.System
}

// pattern resolves the pattern default.
func (w *WorkloadSpec) pattern() string {
	if w.Pattern == "" {
		return "open"
	}
	return w.Pattern
}

// seed resolves the seed default (simcluster's own default).
func (sp *Spec) seed() int64 {
	if sp.Seed == 0 {
		return 42
	}
	return sp.Seed
}

// compile lowers a validated spec onto simcluster.Config. Engine-level
// config problems (fault targets out of range, duplicate colocated function
// names) come back as *Error wrapping the simcluster.ConfigError's field.
func (sp *Spec) compile(file string) (*simcluster.Config, error) {
	prof, err := profileFor(sp.Workload.Profile, sp.Workload.Fanout, sp.Workload.InputSize)
	if err != nil {
		return nil, serrf(file, "workload.profile", "%v", err)
	}
	cfg := simcluster.Config{
		Kind:               systems[sp.systemName()],
		Profile:            prof,
		Seed:               sp.seed(),
		Workers:            sp.Fleet.Workers,
		NodeNICBps:         sp.Fleet.NodeNICBps,
		DiskBps:            sp.Fleet.DiskBps,
		MemMB:              sp.Fleet.MemMB,
		MaxContainersPerFn: sp.Fleet.MaxContainersPerFn,
	}
	for _, c := range sp.Workload.Colocated {
		cp, err := profileFor(c, 0, 0)
		if err != nil {
			return nil, serrf(file, "workload.colocated", "%v", err)
		}
		cfg.Colocated = append(cfg.Colocated, cp)
	}
	if sp.Replicas > 1 {
		cfg.Placement = cluster.RoundRobin{Replicas: sp.Replicas}
	}
	for _, ev := range sp.Events {
		cfg.Faults = append(cfg.Faults, simcluster.FaultEvent{
			At: ev.At.D(), Node: ev.Node, Kind: faultKinds[ev.Kind],
		})
	}
	if sp.Stress != nil {
		sp.expandStress(&cfg)
	} else if len(sp.Fleet.Templates) > 0 {
		workers := sp.Fleet.Workers
		if workers == 0 {
			workers = 3
		}
		cfg.Fleet = sp.Fleet.drawFleet(workers, stressRand(sp.seed()))
	}
	if err := cfg.Validate(); err != nil {
		var ce *simcluster.ConfigError
		if errors.As(err, &ce) {
			return nil, &Error{File: file, Field: "config." + ce.Field, Msg: ce.Msg}
		}
		return nil, serrf(file, "config", "%v", err)
	}
	return &cfg, nil
}
