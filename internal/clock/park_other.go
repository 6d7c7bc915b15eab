//go:build !linux

package clock

import "time"

// park is time.Sleep where there is no timerfd to put in the runtime's
// poller (see park_linux.go).
func park(d time.Duration) { time.Sleep(d) }
