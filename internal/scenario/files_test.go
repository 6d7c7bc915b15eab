package scenario

import (
	"path/filepath"
	"testing"
)

// TestCommittedScenariosPass runs every scenario file shipped in
// scenarios/ — the same set the CI job runs — so a regression that breaks
// a committed scenario fails `go test` too, not just the scenarios job.
func TestCommittedScenariosPass(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("found %d committed scenarios, want >= 5", len(paths))
	}
	suite := &Suite{Pass: true}
	for _, p := range paths {
		rep, err := RunFile(p)
		if err != nil {
			t.Fatal(err)
		}
		suite.Pass = suite.Pass && rep.Pass
		suite.Scenarios = append(suite.Scenarios, rep)
	}
	if !suite.Pass {
		for _, rep := range suite.Scenarios {
			for _, ar := range rep.Assertions {
				if !ar.Pass {
					t.Errorf("%s: %s: %s", rep.Name, ar.Kind, ar.Detail)
				}
			}
		}
		t.Fatal("committed scenarios failed")
	}
	stress := false
	for _, rep := range suite.Scenarios {
		if rep.Workers >= 1000 {
			stress = true
		}
	}
	if !stress {
		t.Fatal("no committed stress scenario with >= 1000 workers")
	}
}

// RunFile loads, validates and runs one scenario file.
func RunFile(path string) (*Report, error) {
	sp, err := Load(path)
	if err != nil {
		return nil, err
	}
	return Run(sp, path)
}
