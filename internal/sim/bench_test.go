package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw kernel event processing: a chain of
// processes sleeping in sequence.
func BenchmarkEventThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEnv(1)
		e.Go(func(p *Proc) {
			for j := 0; j < 1000; j++ {
				p.Sleep(time.Millisecond)
			}
		})
		e.Run()
	}
}

// BenchmarkQueueHandoff measures producer/consumer hand-off cost.
func BenchmarkQueueHandoff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEnv(1)
		q := NewQueue(e, 0)
		e.Go(func(p *Proc) {
			for j := 0; j < 1000; j++ {
				q.TryPut(j)
			}
		})
		e.Go(func(p *Proc) {
			for j := 0; j < 1000; j++ {
				p.Get(q)
			}
		})
		e.Run()
	}
}
