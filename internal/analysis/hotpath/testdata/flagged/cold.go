package a

import (
	"fmt"

	"repro/internal/obs"
)

// No //repolint:hotpath pragma: this file is off the budget and may
// format freely.
func coldFileFormatting(key string) string {
	return fmt.Sprintf("report for %s", key) + "\n"
}

// Setup code resolves instruments from the registry freely.
func setup() *obs.Counter {
	return obs.Default().Counter("puts_total")
}
