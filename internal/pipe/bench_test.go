package pipe

import (
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/clock"
)

// BenchmarkStreamingTransfer measures the chunked transfer path with
// checkpointing (no rate limiting).
func BenchmarkStreamingTransfer(b *testing.B) {
	p := payload(1 << 20)
	log := NewCheckpointLog()
	sink := make([]byte, len(p))
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := &Transfer{StreamID: "s", Payload: p, ChunkSize: 64 << 10, Log: log, FailAfter: -1}
		if _, err := tr.Run(0, func(off int64, chunk []byte, _ int64) {
			copy(sink[off:], chunk)
		}); err != nil {
			b.Fatal(err)
		}
		log.Clear("s")
	}
}

// BenchmarkSocketFastPath measures the <16 KB direct path.
func BenchmarkSocketFastPath(b *testing.B) {
	p := payload(8 << 10)
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := &Transfer{Payload: p, FailAfter: -1}
		if _, err := tr.Run(0, func(int64, []byte, int64) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// parkCounter is the wall clock, counting the limiter's timer parks.
type parkCounter struct {
	clock.Wall
	parks atomic.Int64
}

func (c *parkCounter) Sleep(d time.Duration) {
	c.parks.Add(1)
	c.Wall.Sleep(d)
}

// BenchmarkStreamTransfer measures the paced streaming pipe on the wall
// clock: back-to-back transfers of one relay hop's payload through a TC
// class, reporting the rate the limiter actually delivers and how many
// timer parks a transfer costs (wire time is 0.66 ms; every park adds the
// box's sleep floor unless deadline pacing earns it back).
func BenchmarkStreamTransfer(b *testing.B) {
	b.Run("256KiB@400MBps", func(b *testing.B) {
		p := payload(256 << 10)
		clk := &parkCounter{}
		lims := []*Limiter{NewLimiter(clk, 400e6)}
		deliver := func(int64, []byte, int64) {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := &Transfer{Payload: p, Limiters: lims, FailAfter: -1}
			if _, err := tr.Run(0, deliver); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(p))/1e6/b.Elapsed().Seconds(), "MB/s")
		b.ReportMetric(float64(clk.parks.Load())/float64(b.N), "parks/transfer")
	})
}

// BenchmarkParkLateness measures what one limiter park costs beyond its
// deadline on the wall clock: the lateness of a wake, per park, and the
// process CPU each park burns (user + system, from getrusage), at the lengths
// the relay hop produces — one 64 KiB chunk through a 400 MB/s class
// (164 µs), the whole 256 KiB transfer (655 µs) and the Eq. 1 pressure block
// in front of it (720 µs, 1.1 × 655 µs). One learned wake lead serves all
// three, so the rows show whether it fits the chunk parks and the block
// alike. It is why pacing stays per chunk (see the package doc).
func BenchmarkParkLateness(b *testing.B) {
	for _, d := range []time.Duration{164 * time.Microsecond, 655 * time.Microsecond, 720 * time.Microsecond} {
		b.Run(d.String(), func(b *testing.B) {
			clk := clock.NewWall()
			var late time.Duration
			cpu0 := processCPU(b)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				clk.Sleep(d)
				late += time.Since(start) - d
			}
			cpu := processCPU(b) - cpu0
			b.ReportMetric(float64(late.Microseconds())/float64(b.N), "late-µs/park")
			b.ReportMetric(float64(cpu.Microseconds())/float64(b.N), "cpu-µs/park")
		})
	}
}

// processCPU is the process's user + system CPU time so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
