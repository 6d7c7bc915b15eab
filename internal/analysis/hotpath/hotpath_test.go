package hotpath_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hotpath"
)

func TestHotpath(t *testing.T) {
	analysistest.Run(t, hotpath.Analyzer,
		filepath.Join("testdata", "flagged"), "repro/internal/hotfake", "fmt", "repro/internal/obs")
}
