package core

// The package's tests run with the generation assert on: a job or a queued
// DLU task that reaches a recycled request panics the test binary.
func init() { checkGen = true }
