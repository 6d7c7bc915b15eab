package a

import "time"

// Methods of time's data types that share a banned function's name are pure
// comparisons and arithmetic: only the package-level functions read the
// clock or arm a timer.
func compare(t, u time.Time, d time.Duration) bool {
	if t.After(u) || t.Before(u) {
		return true
	}
	<-time.After(d)        // want `time\.After reads the wall clock`
	tm := time.NewTimer(d) // want `time\.NewTimer reads the wall clock`
	tm.Reset(d)
	tk := time.NewTicker(d) // want `time\.NewTicker reads the wall clock`
	tk.Stop()
	return tm.Stop()
}
