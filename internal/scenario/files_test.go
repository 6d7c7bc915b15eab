package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/suite.golden.json from this run")

// TestCommittedScenariosPass runs every scenario file shipped in
// scenarios/ — the same set the CI job runs — so a regression that breaks
// a committed scenario fails `go test` too, not just the scenarios job. The
// suite report is compared with testdata/suite.golden.json: the scenarios
// run on virtual time, so any byte that moves is a change in what the
// simulator computes. `go test ./internal/scenario -run
// TestCommittedScenariosPass -update` rewrites the file; its diff is the
// change's effect on every scenario.
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
	got, err := suite.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/suite.golden.json"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s:%d differs (rerun with -update and diff the file):\n got: %q\nwant: %q", golden, i+1, g, w)
		}
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
