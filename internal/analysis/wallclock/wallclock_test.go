package wallclock_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/wallclock"
)

func TestWallclockFlagsInternalPackages(t *testing.T) {
	analysistest.Run(t, wallclock.Analyzer,
		filepath.Join("testdata", "flagged"), "repro/internal/simfake", "time", "syscall")
}

func TestWallclockExemptsClockAndNonInternal(t *testing.T) {
	for _, importPath := range []string{"repro/internal/clock", "repro/cmd/benchtool"} {
		analysistest.Run(t, wallclock.Analyzer,
			filepath.Join("testdata", "exempt"), importPath, "time", "syscall")
	}
}
