package scenario

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// parseErr parses src expecting a *Error, and returns it.
func parseErr(t *testing.T, src string) *Error {
	t.Helper()
	_, err := Parse([]byte(src), "test.json")
	if err == nil {
		t.Fatal("Parse accepted a bad scenario")
	}
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("Parse returned %T, want *Error", err)
	}
	if e.File != "test.json" {
		t.Fatalf("error file = %q, want test.json", e.File)
	}
	return e
}

const minimal = `{"workload": {"profile": "wc", "rpm": 600, "count": 5}}`

func TestParseMinimal(t *testing.T) {
	sp, err := Parse([]byte(minimal), "dir/minimal.json")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "minimal" {
		t.Fatalf("Name = %q, want the file base name", sp.Name)
	}
	if sp.systemName() != "dataflower" || sp.Workload.pattern() != "open" || sp.seed() != 42 {
		t.Fatal("defaults not applied")
	}
}

func TestParseRejectsUnknownField(t *testing.T) {
	e := parseErr(t, `{"workload": {"profile": "wc", "rpm": 1, "count": 1}, "workers": 5}`)
	if !strings.Contains(e.Msg, "workers") {
		t.Fatalf("error %q does not name the unknown field", e)
	}
}

func TestParseRejectsBadDuration(t *testing.T) {
	e := parseErr(t, `{"workload": {"profile": "wc", "rpm": 1, "count": 1},
		"events": [{"at": "2 parsecs", "kind": "kill", "node": "w1"}]}`)
	if !strings.Contains(e.Msg, "duration") {
		t.Fatalf("error %q does not explain the duration", e)
	}
}

func TestParseFieldContext(t *testing.T) {
	cases := []struct {
		src   string
		field string
		names string // a word the message must contain, when set
	}{
		{`{"workload": {"profile": "nope", "rpm": 1, "count": 1}}`, "workload.profile", ""},
		{`{"system": "xen", "workload": {"profile": "wc", "rpm": 1, "count": 1}}`, "system", ""},
		{`{"workload": {"profile": "wc", "pattern": "poisson", "rpm": 1, "count": 1}}`, "workload.pattern", ""},
		{`{"workload": {"profile": "wc", "rpm": 1, "count": 1},
			"events": [{"at": "1s", "kind": "explode", "node": "w1"}]}`, "events[0].kind", ""},
		{`{"workload": {"profile": "wc", "rpm": 1, "count": 1},
			"events": [{"at": "1s", "kind": "kill"}]}`, "events[0].node", ""},
		{`{"system": "sonic", "workload": {"profile": "wc", "rpm": 1, "count": 1},
			"events": [{"at": "1s", "kind": "kill", "node": "w1"}]}`, "events[0].kind", ""},
		{`{"workload": {"profile": "wc", "rpm": 1, "count": 1},
			"assertions": [{"kind": "made_up"}]}`, "assertions[0]", ""},
		{`{"workload": {"profile": "wc", "rpm": 1, "count": 1},
			"assertions": [{"kind": "p99_max"}]}`, "assertions[0]", ""},
		{`{"workload": {"profile": "wc", "rpm": 1, "count": 1},
			"stress": {"nodes": 0}}`, "stress.nodes", ""},
		{`{"workload": {"profile": "wc", "rpm": 1, "count": 1},
			"stress": {"nodes": 10, "failure_rate": 1.5}}`, "stress.failure_rate", ""},
		{`{"replicas": -1, "workload": {"profile": "wc", "rpm": 1, "count": 1}}`, "replicas", ""},
		// Files written for the tenant-and-QoS schema are refused by name,
		// never run without the plane they asked for.
		{`{"workload": {"profile": "wc", "rpm": 1, "count": 1},
			"qos": {"capacity": 16, "tenants": {"a": {"weight": 3}}}}`, "qos", "qos"},
		{`{"workload": {"profile": "wc", "pattern": "tenants",
			"tenants": [{"name": "a", "rpm": 1, "count": 1}]}}`, "workload.pattern", "tenants"},
		{`{"workload": {"profile": "wc", "rpm": 1, "count": 1},
			"events": [{"at": "1s", "kind": "kill", "node": "w1"},
				{"at": "2s", "kind": "flood", "tenant": "hot", "rpm": 600, "count": 20}]}`, "events[1].kind", "flood"},
		{`{"workload": {"profile": "wc", "rpm": 1, "count": 1},
			"assertions": [{"kind": "completed_min", "value": 1},
				{"kind": "tenant_p99_max", "tenant": "gold", "bound": "2s"}]}`, "assertions[1].kind", "tenant_p99_max"},
		{`{"workload": {"profile": "wc", "rpm": 1, "count": 1},
			"assertions": [{"kind": "goodput_share_min", "tenant": "gold", "value": 0.25}]}`, "assertions[0].kind", "goodput_share_min"},
	}
	for _, c := range cases {
		e := parseErr(t, c.src)
		if e.Field != c.field {
			t.Errorf("field = %q, want %q (msg: %s)", e.Field, c.field, e.Msg)
		}
		if !strings.Contains(e.Msg, c.names) {
			t.Errorf("error %q does not name %q", e, c.names)
		}
	}
}

// TestCompileSurfacesConfigError pins the loader satellite: an engine-level
// config problem (fault target out of range) comes back as a *Error
// wrapping the simcluster field, never a panic.
func TestCompileSurfacesConfigError(t *testing.T) {
	sp, err := Parse([]byte(`{"fleet": {"workers": 3},
		"workload": {"profile": "wc", "rpm": 600, "count": 3},
		"events": [{"at": "1s", "kind": "kill", "node": "w7"}]}`), "oob.json")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(sp, "oob.json")
	if err == nil {
		t.Fatal("Run accepted an out-of-range fault target")
	}
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("Run returned %T, want *Error", err)
	}
	if e.Field != "config.Faults[0].Node" || e.File != "oob.json" {
		t.Fatalf("error = %v, want config.Faults[0].Node in oob.json", e)
	}
}

func TestRunMinimal(t *testing.T) {
	sp, err := Parse([]byte(minimal), "minimal.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sp, "minimal.json")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Counters.Completed != 5 || rep.Workers != 3 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

// TestViolatedAssertionReportsObservedVsBound pins the acceptance demand: a
// deliberately-violated assertion fails the scenario with an
// observed-vs-bound detail line.
func TestViolatedAssertionReportsObservedVsBound(t *testing.T) {
	sp, err := Parse([]byte(`{"workload": {"profile": "wc", "rpm": 600, "count": 5},
		"assertions": [{"kind": "completed_min", "value": 1000000}]}`), "violated.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sp, "violated.json")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("report passed a violated assertion")
	}
	ar := rep.Assertions[0]
	if ar.Pass || ar.Observed != 5 || ar.Bound != 1e6 {
		t.Fatalf("assertion = %+v, want observed 5 vs bound 1e+06", ar)
	}
	if !strings.Contains(ar.Detail, "observed 5 >= bound 1e+06") {
		t.Fatalf("detail %q is not an observed-vs-bound line", ar.Detail)
	}
}

// TestUnevaluableAssertionFails pins that a bound over a metric the run
// never sampled (no kill, so no recovery latency) fails loudly instead of
// passing a trivially-zero ceiling.
func TestUnevaluableAssertionFails(t *testing.T) {
	sp, err := Parse([]byte(`{"workload": {"profile": "wc", "rpm": 600, "count": 5},
		"assertions": [{"kind": "recovery_p99_max", "bound": "10s"}]}`), "unsampled.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sp, "unsampled.json")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.Assertions[0].Pass {
		t.Fatal("an assertion over an unsampled metric passed")
	}
	if !strings.Contains(rep.Assertions[0].Detail, "unevaluable") {
		t.Fatalf("detail %q does not mark the assertion unevaluable", rep.Assertions[0].Detail)
	}
}

func TestRegistriesNonEmpty(t *testing.T) {
	if len(Events()) < 3 {
		t.Fatalf("event registry has %d kinds, want >= 3", len(Events()))
	}
	if len(Assertions()) < 12 {
		t.Fatalf("assertion registry has %d kinds, want >= 12", len(Assertions()))
	}
	for _, k := range Assertions() {
		if k.Doc == "" {
			t.Fatalf("assertion %s has no doc", k.Name)
		}
		if kindByName[k.Name] == nil {
			t.Fatalf("assertion %s missing from index", k.Name)
		}
	}
}

// TestDurRoundTrip pins the duration JSON format.
func TestDurRoundTrip(t *testing.T) {
	var d Dur
	if err := d.UnmarshalJSON([]byte(`"1m30s"`)); err != nil || d.D().Seconds() != 90 {
		t.Fatalf("unmarshal 1m30s: %v, %v", d, err)
	}
	b, err := d.MarshalJSON()
	if err != nil || !bytes.Equal(b, []byte(`"1m30s"`)) {
		t.Fatalf("marshal: %s, %v", b, err)
	}
	if err := d.UnmarshalJSON([]byte(`90`)); err == nil {
		t.Fatal("bare numbers must be rejected (ambiguous unit)")
	}
}
