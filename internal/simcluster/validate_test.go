package simcluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/workloads"
)

// wantConfigError asserts Validate rejects the config with a *ConfigError
// naming the given field.
func wantConfigError(t *testing.T, cfg Config, field string) {
	t.Helper()
	err := cfg.Validate()
	if err == nil {
		t.Fatalf("Validate accepted a config with bad %s", field)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("Validate returned %T, want *ConfigError", err)
	}
	if ce.Field != field {
		t.Fatalf("ConfigError.Field = %q, want %q (msg: %s)", ce.Field, field, ce.Msg)
	}
	if !strings.Contains(ce.Error(), "Config."+field) {
		t.Fatalf("error %q does not name Config.%s", ce.Error(), field)
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	cfg := Config{Kind: DataFlower, Profile: workloads.WordCount(3, 0)}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected a default config: %v", err)
	}
}

func TestValidateMissingProfile(t *testing.T) {
	wantConfigError(t, Config{Kind: DataFlower}, "Profile")
}

func TestValidateFaultNodeOutOfRange(t *testing.T) {
	prof := workloads.WordCount(3, 0)
	// Default cluster has 3 workers: w4 is out of range, as are malformed
	// names.
	for _, node := range []string{"w4", "w0", "node2", "", "w1x"} {
		cfg := Config{
			Kind: DataFlower, Profile: prof,
			Faults: []FaultEvent{{At: time.Second, Node: node, Kind: KillNode}},
		}
		wantConfigError(t, cfg, "Faults[0].Node")
	}
	// w3 is in range on the default cluster; w4 is valid once Workers says
	// so.
	ok := Config{
		Kind: DataFlower, Profile: prof, Workers: 4,
		Faults: []FaultEvent{{At: time.Second, Node: "w4", Kind: KillNode}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate rejected an in-range fault target: %v", err)
	}
}

func TestValidateFaultNodeAgainstFleet(t *testing.T) {
	cfg := Config{
		Kind: DataFlower, Profile: workloads.WordCount(3, 0),
		Fleet:  []NodeSpec{{}, {}, {}, {}, {}},
		Faults: []FaultEvent{{At: time.Second, Node: "w6", Kind: KillNode}},
	}
	wantConfigError(t, cfg, "Faults[0].Node")
	cfg.Faults[0].Node = "w5"
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected a fleet-ranged fault target: %v", err)
	}
}

func TestValidateNegativeFaultTime(t *testing.T) {
	cfg := Config{
		Kind: DataFlower, Profile: workloads.WordCount(3, 0),
		Faults: []FaultEvent{{At: -time.Second, Node: "w1", Kind: KillNode}},
	}
	wantConfigError(t, cfg, "Faults[0].At")
}

func TestValidateFaultsOnControlFlowSystem(t *testing.T) {
	cfg := Config{
		Kind: FaaSFlow, Profile: workloads.WordCount(3, 0),
		Faults: []FaultEvent{{At: time.Second, Node: "w1", Kind: KillNode}},
	}
	wantConfigError(t, cfg, "Faults")
}

func TestValidateNegativeRatesAndDurations(t *testing.T) {
	prof := workloads.WordCount(3, 0)
	base := func() Config { return Config{Kind: DataFlower, Profile: prof} }

	cfg := base()
	cfg.NodeNICBps = -1
	wantConfigError(t, cfg, "NodeNICBps")

	cfg = base()
	cfg.RequestTimeout = -time.Minute
	wantConfigError(t, cfg, "RequestTimeout")

	cfg = base()
	cfg.Workers = -2
	wantConfigError(t, cfg, "Workers")

	cfg = base()
	cfg.Fleet = []NodeSpec{{NICBps: 1}, {NICBps: -1}}
	wantConfigError(t, cfg, "Fleet[1].NICBps")
}

func TestValidateDuplicateColocatedFunctions(t *testing.T) {
	prof := workloads.WordCount(3, 0)
	cfg := Config{
		Kind: DataFlower, Profile: prof,
		// The same benchmark twice: every function name collides.
		Colocated: []*workloads.Profile{workloads.WordCount(3, 0)},
	}
	wantConfigError(t, cfg, "Colocated")

	cfg.Colocated = []*workloads.Profile{nil}
	wantConfigError(t, cfg, "Colocated[0]")
}

// TestNewPanicsOnInvalidConfig pins the programmatic-misuse contract: New
// panics (with the ConfigError text) instead of silently misbehaving.
func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted an invalid config")
		}
		if !strings.Contains(r.(string), "Config.Faults[0].Node") {
			t.Fatalf("panic %q does not name the offending field", r)
		}
	}()
	New(Config{
		Kind: DataFlower, Profile: workloads.WordCount(3, 0),
		Faults: []FaultEvent{{At: time.Second, Node: "w9", Kind: KillNode}},
	})
}
