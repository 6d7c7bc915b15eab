package scenario

import (
	"bytes"
	"testing"

	"repro/internal/simcluster"
)

// chaotic is a deliberately busy spec: weighted templates, a 1000-node
// stress fleet with seeded chaos, replicas and seeded open-loop arrivals —
// every source of scenario randomness at once.
const chaotic = `{
  "name": "determinism-probe",
  "seed": 1234,
  "replicas": 4,
  "fleet": {"templates": [
    {"name": "big", "weight": 1, "nic_bps": 250e6},
    {"name": "small", "weight": 3, "nic_bps": 62.5e6}
  ]},
  "workload": {"profile": "img", "pattern": "open", "rpm": 360, "count": 45},
  "stress": {"nodes": 1000, "failure_rate": 0.05, "start": "1s",
             "kill_spacing": "100ms", "recover_after": "3s"},
  "assertions": [{"kind": "completed_min", "value": 1}]
}`

// suiteBytes parses and runs the chaotic spec and marshals its suite.
func suiteBytes(t *testing.T) []byte {
	t.Helper()
	sp, err := Parse([]byte(chaotic), "chaotic.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sp, "chaotic.json")
	if err != nil {
		t.Fatal(err)
	}
	s := &Suite{Pass: rep.Pass, Scenarios: []*Report{rep}}
	data, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSameSeedByteIdenticalReport is the acceptance pin: the same scenario
// file and seed produce byte-identical report JSON, run twice in-process.
func TestSameSeedByteIdenticalReport(t *testing.T) {
	a := suiteBytes(t)
	b := suiteBytes(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("same scenario + seed produced different reports:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestDifferentSeedDifferentSchedule sanity-checks that the seed actually
// drives the expansion (otherwise the identity above would be vacuous).
func TestDifferentSeedDifferentSchedule(t *testing.T) {
	sp, err := Parse([]byte(chaotic), "chaotic.json")
	if err != nil {
		t.Fatal(err)
	}
	a, err := sp.compile("chaotic.json")
	if err != nil {
		t.Fatal(err)
	}
	sp.Seed = 5678
	b, err := sp.compile("chaotic.json")
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Faults) == len(b.Faults)
	if same {
		diff := false
		for i := range a.Faults {
			if a.Faults[i] != b.Faults[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatal("different seeds expanded to the identical chaos schedule")
		}
	}
}

// TestStressExpansion pins the expansion arithmetic: fleet size, kill
// count, recover pairing, and template draws all from the spec.
func TestStressExpansion(t *testing.T) {
	sp, err := Parse([]byte(chaotic), "chaotic.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := sp.compile("chaotic.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Fleet) != 1000 {
		t.Fatalf("fleet = %d nodes, want 1000", len(c.Fleet))
	}
	kills, recovers := 0, 0
	seen := map[string]bool{}
	for _, fe := range c.Faults {
		switch fe.Kind {
		case simcluster.KillNode:
			kills++
			if seen[fe.Node] {
				t.Fatalf("node %s killed twice: victims must be distinct", fe.Node)
			}
			seen[fe.Node] = true
		case simcluster.RecoverNode:
			recovers++
		}
	}
	if kills != 50 { // failure_rate 0.05 x 1000 nodes
		t.Fatalf("kills = %d, want 50", kills)
	}
	if recovers != kills {
		t.Fatalf("recovers = %d, want one per kill", recovers)
	}
	// Both templates must actually appear in the draw (weights 1:3 over
	// 1000 nodes).
	big, small := 0, 0
	for _, sp := range c.Fleet {
		switch sp.NICBps {
		case 250e6:
			big++
		case 62.5e6:
			small++
		default:
			t.Fatalf("fleet entry with unexpected NICBps %g", sp.NICBps)
		}
	}
	if big == 0 || small == 0 {
		t.Fatalf("template draw degenerate: big=%d small=%d", big, small)
	}
	if small < big {
		t.Fatalf("weight-3 template drew fewer nodes (%d) than weight-1 (%d)", small, big)
	}
}
