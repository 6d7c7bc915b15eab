package pipe

import (
	"testing"
	"time"
)

// The park instruments count real parks only and record each one's
// lateness, wake − deadline: exactly the clock's, and so exactly zero on a
// clock that wakes on time.
func TestParkInstrumentsRecordTheClocksLateness(t *testing.T) {
	for _, late := range []time.Duration{0, timerMs} {
		clk := newLateClock(late)
		l := NewLimiter(clk, tcRate)
		parks0, late0 := obsParks.Load(), obsParkLate.Snapshot()
		clk.run(func() {
			l.Take(1) // 2.5 ns of debt: under the granularity, no park
			for i := 0; i < 8; i++ {
				l.Take(chunk)
			}
		})
		parks := obsParks.Load() - parks0
		if want := int64(clk.parkCount()); parks != want || parks == 0 {
			t.Fatalf("late=%v: pipe_parks_total moved by %d over %d parks", late, parks, want)
		}
		hist := obsParkLate.Snapshot()
		if n := hist.Count - late0.Count; n != parks {
			t.Fatalf("late=%v: pipe_park_late_ns took %d observations over %d parks", late, n, parks)
		}
		if sum, want := hist.Sum-late0.Sum, parks*int64(late); sum != want {
			t.Fatalf("late=%v: pipe_park_late_ns summed %d ns over %d parks, want %d", late, sum, parks, want)
		}
	}
}
