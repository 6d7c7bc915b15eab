package a

import "syscall"

// Waiting in the kernel is sleeping by another name: it bypasses the
// injected clock exactly as time.Sleep does.
func osWaits() {
	ts := syscall.NsecToTimespec(1000)
	_ = syscall.Nanosleep(&ts, nil)              // want `syscall\.Nanosleep waits in the OS behind the clock seam`
	_, _ = syscall.Select(0, nil, nil, nil, nil) // want `syscall\.Select waits in the OS behind the clock seam`
	_ = syscall.Getpid()                         // other syscalls are not waits
}
