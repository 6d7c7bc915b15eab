//go:build linux

package clock

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// These tests hold the wall clock's park (park_linux.go) to what it is for:
// it never wakes early, it wakes on time in a process with nothing else to
// do — which time.Sleep does not — and it does so without a thread, a
// goroutine or an allocation per sleeper.

func TestWallSleepIsNeverEarly(t *testing.T) {
	for _, d := range []time.Duration{
		50 * time.Microsecond, 164 * time.Microsecond, 655 * time.Microsecond,
		1500 * time.Microsecond, 20 * time.Millisecond,
	} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel() // the five durations overlap: the heap holds several deadlines
			for i := 0; i < 100; i++ {
				start := time.Now()
				Wall{}.Sleep(d)
				if got := time.Since(start); got < d {
					t.Fatalf("sleep %d: Sleep(%v) returned after %v", i, d, got)
				}
			}
		})
	}
}

// An idle Go process rounds every timer up to the next whole millisecond of
// epoll_wait: time.Sleep(200µs) returns after about 1.1 ms here.
func TestWallSleepWakesOnTimeWhenIdle(t *testing.T) {
	const d, limit = 200 * time.Microsecond, 600 * time.Microsecond
	took := make([]time.Duration, 50)
	for i := range took {
		start := time.Now()
		Wall{}.Sleep(d)
		took[i] = time.Since(start)
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if median := took[len(took)/2]; median > limit {
		t.Fatalf("median Sleep(%v) of an idle process took %v, want at most %v (all: %v)", d, median, limit, took)
	}
}

func TestWallSleepStormAddsNoThreadOrGoroutinePerSleeper(t *testing.T) {
	const sleepers, rounds = 512, 20
	Wall{}.Sleep(time.Microsecond) // the service is started by the first sleep
	threads := pprof.Lookup("threadcreate").Count()
	var early atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < sleepers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				d := 100*time.Microsecond + time.Duration(rng.Int63n(int64(400*time.Microsecond)))
				start := time.Now()
				Wall{}.Sleep(d)
				if time.Since(start) < d {
					early.Add(1)
				}
			}
		}(int64(g))
	}
	wg.Wait() // every sleeper woke
	if n := early.Load(); n != 0 {
		t.Errorf("%d of %d sleeps returned early", n, sleepers*rounds)
	}
	if grew := pprof.Lookup("threadcreate").Count() - threads; grew > 2 {
		t.Errorf("%d concurrent sleepers created %d OS threads, want at most 2", sleepers, grew)
	}
	var stacks bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&stacks, 2); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(stacks.Bytes(), []byte("clock.(*parker).serve(")); n != 1 {
		t.Errorf("%d service goroutines after the storm, want exactly 1", n)
	}
}

func TestWallSleepDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	if allocs := testing.AllocsPerRun(200, func() { Wall{}.Sleep(20 * time.Microsecond) }); allocs != 0 {
		t.Fatalf("Wall.Sleep allocates %v objects per park in steady state, want 0", allocs)
	}
}

// A process that may not create a timerfd sleeps on the runtime timer: no
// parker, no service goroutine, still never early.
func TestParkFallsBackWhenTimerfdIsRefused(t *testing.T) {
	before := runtime.NumGoroutine()
	p := newParker(func() (int, error) { return -1, syscall.ENOSYS })
	if p != nil {
		t.Fatal("newParker returned a parker although timerfd_create was refused")
	}
	const d = 2 * time.Millisecond
	start := time.Now()
	p.sleep(d)
	if got := time.Since(start); got < d {
		t.Fatalf("fallback sleep(%v) returned after %v", d, got)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("refused parker left %d goroutines behind", after-before)
	}
}

// The lead is a running mean of the lateness its sleepers report: it starts
// at zero and settles on what the samples say.
func TestLeadConvergesToTheLatenessItIsFed(t *testing.T) {
	var p parker
	if got := p.lead.Load(); got != 0 {
		t.Fatalf("lead before the first wake = %v, want 0", time.Duration(got))
	}
	var lead int64
	for _, want := range []time.Duration{15 * time.Microsecond, 40 * time.Microsecond, 3 * time.Microsecond} {
		for i := 0; i < 200; i++ {
			lead = nextLead(lead, int64(want))
		}
		if diff := time.Duration(lead) - want; diff < -leadWeight || diff > leadWeight {
			t.Fatalf("after 200 samples of %v the lead is %v", want, time.Duration(lead))
		}
	}
	// A noisy lateness settles on its mean.
	rng := rand.New(rand.NewSource(1))
	lead = 0
	var sum, n int64
	for i := 0; i < 5000; i++ {
		late := int64(10*time.Microsecond) + rng.Int63n(int64(20*time.Microsecond))
		lead = nextLead(lead, late)
		if i >= 1000 {
			sum, n = sum+lead, n+1
		}
	}
	if mean := time.Duration(sum / n); mean < 18*time.Microsecond || mean > 22*time.Microsecond {
		t.Fatalf("lead fed U[10µs,30µs) averaged %v, want about 20µs", mean)
	}
}

func TestAimLeadIsAtMostAQuarterOfTheSleep(t *testing.T) {
	for _, lead := range []time.Duration{0, time.Microsecond, 16 * time.Microsecond, time.Millisecond, time.Hour} {
		for _, d := range []time.Duration{time.Nanosecond, 3, 50 * time.Microsecond, 164 * time.Microsecond, 20 * time.Millisecond} {
			if got, want := time.Duration(aimLead(int64(lead), d)), min(lead, d/4); got != want {
				t.Errorf("aimLead(%v, %v) = %v, want %v", lead, d, got, want)
			}
		}
	}
}

// The yield after an early wake is what keeps a sleep from returning early:
// with the lead forced past its cap, every park aims a quarter of its length
// before the deadline and must still not return before it.
func TestWallSleepIsNeverEarlyWithTheLeadAtItsCap(t *testing.T) {
	p := wallParker()
	if p == nil {
		t.Skip("no timerfd: Wall.Sleep is time.Sleep")
	}
	saved := p.lead.Load()
	defer p.lead.Store(saved)
	for _, d := range []time.Duration{50 * time.Microsecond, 20 * time.Millisecond} {
		for i := 0; i < 50; i++ {
			p.lead.Store(int64(time.Hour)) // each wake moves it; force it back
			start := time.Now()
			Wall{}.Sleep(d)
			if got := time.Since(start); got < d {
				t.Fatalf("sleep %d: Sleep(%v) with the lead capped at %v returned after %v", i, d, d/4, got)
			}
		}
	}
}
