// Package pipe implements the pipe connectors of DataFlower's runtime
// plane: the streaming channel that carries intermediate data from a source
// DLU to the destination node's data sink (§7, §8).
//
// Three connector flavours mirror the paper:
//
//   - Local pipe: source and destination functions share a node; the data is
//     pumped straight into the local data sink with no network shaping.
//   - Streaming pipe: cross-node transfers are chunked; every chunk passes
//     the source container's bandwidth limiter (Linux TC stand-in) and
//     advances an incremental checkpoint so failed transfers can be resumed
//     or ReDone from the last good offset.
//   - Socket fast path: payloads at or below SmallDataThreshold (16 KB) skip
//     the chunking machinery and travel as a single message.
//
// The package substitutes the paper's Kafka-based connector: topics map to
// stream IDs, partitions to per-container streams, and Kafka's offset
// tracking to the CheckpointLog.
//
// Pacing is deadline-based (see Limiter): a chunk waits until the instant
// the bytes before it have drained at the class rate, not for a sleep of
// its own length, so a timer that wakes late delays a stream once instead
// of once per chunk. On a clock that wakes on time the two are the same.
//
// Pacing stays per chunk rather than one park per transfer, though a relay
// hop then parks four times where it could park once. A park wakes later the
// longer it is, and the credit a late wake leaves pays only the charges after
// it — a transfer's last park has none. A copy charging each limiter once per
// transfer read relay-bulk's p50 1.2–2.4 % worse in four alternating 30 s
// pairs out of four.
//
// The wall clock's park aims early by its own learned wake latency and
// yields out the rest (internal/clock), so what lateness is left is small.
// BenchmarkParkLateness, medians of five 2000-park runs in an otherwise idle
// process on a 2-vCPU Firecracker guest (go1.24.0), late-µs / cpu-µs per
// park, without that lead → with it:
//
//	164 µs (one 64 KiB chunk at 400 MB/s)    13.8 / 19.7 →  2.1 / 22.5
//	655 µs (the whole 256 KiB)               39.5 / 40.4 → 11.0 / 50.2
//	720 µs (the Eq. 1 block, 1.1 × 655 µs)   40.2 / 45.5 → 11.5 / 45.7
//
// The engine no longer calls these primitives directly: ship/land go
// through internal/transport, whose in-process implementation
// (transport.Inproc) composes the limiters, the checkpointed streaming
// transfer and the sink put exactly as the DLU daemon used to inline —
// and whose TCP implementation replaces the shaped in-memory copy with a
// real socket.
package pipe

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
)

// SmallDataThreshold is the size at or below which data bypasses the
// streaming pipe and travels directly over a socket (paper §7: 16 KB).
const SmallDataThreshold = 16 << 10

// DefaultChunkSize is the streaming pipe chunk size.
const DefaultChunkSize = 64 << 10

// ErrInjectedFailure is returned by transfers that hit an injected fault.
var ErrInjectedFailure = errors.New("pipe: injected transfer failure")

// Limiter paces bytes at a configured rate (a fluid token bucket):
// concurrent takers queue in FIFO arrival order, like flows sharing a TC
// class. A nil *Limiter is valid and imposes no limit.
//
// Pacing is by deadline, not by sleep: the bucket deadline (next) advances
// by exactly bytes/rate per charge, and a taker parks until that deadline.
// Link time the stream left idle is forgiven (a late charge restarts the
// bucket at now), but the limiter's own oversleep is not idle time: when a
// park wakes after its deadline, the stretch between the two stays on the
// books as credit, and the following charges of the same busy stream draw
// on it instead of each parking for the timer's floor again. The guarantee
// is therefore two-sided. From an idle limiter, no prefix of n bytes passes
// sooner than n/rate - limiterGranularity, on any clock. And a busy stream
// gets back every park's lateness up to limiterMaxCredit, so only its last
// park's is lost. On a clock that wakes on time (clock.Manual, the
// simulation plane) there is no lateness and hence never any credit.
type Limiter struct {
	mu   sync.Mutex
	clk  clock.Clock
	rate float64 // bytes per second; fixed at NewLimiter
	// next is the bucket deadline: the reading at which the bytes charged
	// so far have drained at the configured rate.
	next time.Duration
	// woke is the reading credit was last granted at (a late wake-up) or
	// drawn on; the credit itself is woke - next while that is positive.
	woke time.Duration
}

// NewLimiter returns a limiter enforcing bytesPerSec on clk. A
// non-positive rate means unlimited.
func NewLimiter(clk clock.Clock, bytesPerSec float64) *Limiter {
	return &Limiter{clk: clk, rate: bytesPerSec}
}

// Rate returns the configured rate in bytes/second (<=0 unlimited).
func (l *Limiter) Rate() float64 {
	if l == nil {
		return 0
	}
	return l.rate
}

// limiterGranularity is the smallest wait a charge actually sleeps. Shorter
// charges stay accumulated in the bucket (l.next) and are paid once they
// aggregate past the threshold — the timer-wheel granularity a kernel TC
// class has — so a sub-granularity charge costs no timer park (~tens of
// microseconds of wall time, at best, for a nanosecond-scale debt). It is
// also the bound on how far ahead of the configured rate a stream can run
// (the unparked debt), and the idle gap after which oversleep credit
// expires.
const limiterGranularity = 100 * time.Microsecond

// limiterMaxCredit bounds the oversleep a late wake-up leaves as credit:
// however long a parked taker was stalled, at most this much link time
// passes unpaced afterwards (the burst a TC class accumulates over one
// timer tick at HZ=250). Lateness beyond it is lost.
const limiterMaxCredit = 4 * time.Millisecond

// Take blocks until n bytes may pass.
func (l *Limiter) Take(n int64) { l.TakeN(1, n) }

// TakeN charges a batch of count items totalling n bytes in one debt
// computation: one lock acquisition, one clock read and at most one timer
// park for the whole batch, where count per-item Takes would pay count of
// each. The bucket advances by the same total, so the pacing is identical
// to per-item charging — except that TakeN never loses the batch to
// per-item truncation: items individually under the one-nanosecond charge
// floor (which Take skips) still pay once their batch total crosses it, so
// a batch is if anything charged more faithfully than its items. It returns
// how long the charge parked on the limiter's clock (0 for the common charge
// that does not), so a caller pacing on a goroutine whose time is accounted
// to someone else — an FLU shipping inline — can book the park as its own.
func (l *Limiter) TakeN(count int, n int64) time.Duration {
	return l.TakeNAt(count, n, clock.NoReading)
}

// TakeNAt is TakeN for a caller holding a reading of the limiter's clock
// taken before the call (clock.NoReading: none). A charge that cannot park
// even priced at that reading — its debt stays under limiterGranularity past
// it, and no oversleep credit is on the books — is priced there and reads no
// clock; every other charge reads the clock as TakeN does, so whether and
// until when a charge parks is unchanged. Priced at an earlier reading, a
// charge into a bucket that drained since restarts it up to the reading's age
// early: idle link time pays for at most the charge's own cost, so the stream
// runs ahead of the rate by less than limiterGranularity beyond TakeN's bound.
func (l *Limiter) TakeNAt(count int, n int64, at time.Duration) time.Duration {
	if l == nil || count <= 0 || n <= 0 {
		return 0
	}
	if l.rate <= 0 {
		return 0
	}
	// A charge that rounds to less than one nanosecond cannot advance the
	// bucket (the duration truncates to zero in charge), so skip the lock
	// and clock read entirely.
	if float64(n)*float64(time.Second) < l.rate {
		return 0
	}
	return l.charge(n, at)
}

// charge folds n bytes of debt into the bucket and parks until the bucket
// deadline once the accumulated wait crosses the granularity, returning the
// time it was parked. now is at only when the charge cannot park from there
// (TakeNAt).
func (l *Limiter) charge(n int64, at time.Duration) time.Duration {
	cost := time.Duration(float64(n) / l.rate * float64(time.Second))
	l.mu.Lock()
	now := at
	if at < 0 || l.woke > l.next || max(l.next-at, 0)+cost >= limiterGranularity {
		now = l.clk.Now()
	}
	if l.next < now {
		// The bucket drained before this charge arrived. The time since is
		// idle link time and is forgiven — except the stretch up to a late
		// wake-up, which was the timer, not the stream: that much stays as
		// credit while the stream keeps the limiter busy.
		credit := l.woke - l.next
		if credit <= 0 || now-l.woke >= limiterGranularity {
			credit = 0
		} else if credit > limiterMaxCredit {
			credit = limiterMaxCredit
		}
		l.next, l.woke = now-credit, now
	}
	l.next += cost
	wait := l.next - now
	l.mu.Unlock()
	if wait < limiterGranularity {
		return 0
	}
	l.clk.Sleep(wait)
	l.mu.Lock()
	woke := l.clk.Now()
	if woke > l.next {
		l.woke = woke // overslept past every queued deadline: grant credit
	}
	l.mu.Unlock()
	obsParks.Inc(0)
	obsParkLate.Observe(0, int64(woke-now-wait))
	return woke - now
}

// Checkpoint is one incremental progress record of a stream.
type Checkpoint struct {
	StreamID string
	Offset   int64
}

// CheckpointLog records the furthest checkpoint per stream. It stands in
// for the connector's asynchronous incremental checkpointing (§6.2): after a
// failure, the engine asks for the last good offset and ReDoes from there.
type CheckpointLog struct {
	mu   sync.Mutex
	last map[string]Checkpoint
}

// NewCheckpointLog returns an empty log.
func NewCheckpointLog() *CheckpointLog {
	return &CheckpointLog{last: make(map[string]Checkpoint)}
}

// Record stores cp if it advances the stream's offset.
func (c *CheckpointLog) Record(cp Checkpoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.last[cp.StreamID]; !ok || cp.Offset > old.Offset {
		c.last[cp.StreamID] = cp
	}
}

// Last returns the furthest checkpoint of the stream.
func (c *CheckpointLog) Last(streamID string) (Checkpoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, ok := c.last[streamID]
	return cp, ok
}

// Clear drops the stream's checkpoints (after successful completion).
func (c *CheckpointLog) Clear(streamID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.last, streamID)
}

// Transfer is one source-to-destination data movement.
type Transfer struct {
	// StreamID names the stream for checkpointing (Kafka topic+partition
	// stand-in). Required when Log is set.
	StreamID string
	// Payload is the data to move.
	Payload []byte
	// ChunkSize overrides DefaultChunkSize when > 0.
	ChunkSize int
	// Limiters are applied to every chunk in order (the engine passes the
	// source container's TC class). Nil entries are skipped.
	Limiters []*Limiter
	// Log receives incremental checkpoints after every chunk; nil disables.
	Log *CheckpointLog
	// FailAfter injects a failure once at least FailAfter bytes have been
	// sent; negative disables injection.
	FailAfter int64
}

// Deliver is called for every chunk that arrives at the destination.
// offset is the position of the chunk's first byte, total the payload size.
type Deliver func(offset int64, chunk []byte, total int64)

// Run moves the payload from the given offset, invoking deliver per chunk.
// It returns the number of bytes delivered in this run (not counting the
// resumed prefix) and the first error.
func (t *Transfer) Run(fromOffset int64, deliver Deliver) (int64, error) {
	if t.Log != nil && t.StreamID == "" {
		return 0, fmt.Errorf("pipe: transfer with Log requires StreamID")
	}
	if fromOffset < 0 || fromOffset > int64(len(t.Payload)) {
		return 0, fmt.Errorf("pipe: resume offset %d out of range [0,%d]", fromOffset, len(t.Payload))
	}
	total := int64(len(t.Payload))
	// Socket fast path for small data: one message, no chunking, no
	// checkpoint (an interrupted small send is simply redone).
	if total <= SmallDataThreshold {
		for _, l := range t.Limiters {
			l.Take(total - fromOffset)
		}
		if t.FailAfter >= 0 && t.FailAfter < total {
			return 0, ErrInjectedFailure
		}
		if total > fromOffset {
			deliver(fromOffset, t.Payload[fromOffset:], total)
		}
		return total - fromOffset, nil
	}
	chunk := t.ChunkSize
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	var sent int64
	for off := fromOffset; off < total; {
		end := off + int64(chunk)
		if end > total {
			end = total
		}
		n := end - off
		for _, l := range t.Limiters {
			l.Take(n)
		}
		if t.FailAfter >= 0 && off+n > t.FailAfter {
			return sent, ErrInjectedFailure
		}
		deliver(off, t.Payload[off:end], total)
		sent += n
		off = end
		if t.Log != nil {
			t.Log.Record(Checkpoint{StreamID: t.StreamID, Offset: off})
		}
	}
	return sent, nil
}

// Resume continues a failed transfer from its last checkpoint. It returns
// the bytes delivered by the resumed run.
func (t *Transfer) Resume(deliver Deliver) (int64, error) {
	from := int64(0)
	if t.Log != nil {
		if cp, ok := t.Log.Last(t.StreamID); ok {
			from = cp.Offset
		}
	}
	return t.Run(from, deliver)
}
