package a

import "syscall"

// internal/clock may wait however the platform waits best.
func osWait() {
	ts := syscall.NsecToTimespec(1000)
	_ = syscall.Nanosleep(&ts, nil)
	_, _ = syscall.Select(0, nil, nil, nil, nil)
}
