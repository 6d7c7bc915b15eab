// Package pipe implements the pipe connectors of DataFlower's runtime
// plane: the streaming channel that carries intermediate data from a source
// DLU to the destination node's data sink (§7, §8).
//
// Three connector flavours mirror the paper:
//
//   - Local pipe: source and destination functions share a node; the data is
//     pumped straight into the local data sink with no network shaping.
//   - Streaming pipe: cross-node transfers are chunked; every chunk passes
//     the source container's bandwidth limiter (Linux TC stand-in) and the
//     destination node's limiter, and advances an incremental checkpoint so
//     failed transfers can be resumed or ReDone from the last good offset.
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
// it — a transfer's last park has none. BenchmarkParkLateness reads 109 µs
// of lateness per 164 µs park (one 64 KiB chunk at 400 MB/s) against 240 µs
// per 655 µs park (the whole 256 KiB) in an idle process on a 2-vCPU
// Firecracker guest, and on the same guest a copy charging each limiter once
// per transfer read relay-bulk's p50 1.2–2.4 % worse in four alternating
// 30 s pairs out of four.
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
	"math"
	"sync"
	"sync/atomic"
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
// class. A nil *Limiter is valid and imposes no limit. The rate may be
// changed mid-stream with SetRate (a TC class re-shape): debt already
// folded into the bucket keeps its old price, future charges pay the new
// one.
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
	rate atomic.Uint64 // math.Float64bits(bytes per second)
	// next is the bucket deadline: the instant the bytes charged so far
	// have drained at the configured rate.
	next time.Time
	// woke is the instant credit was last granted (a late wake-up) or drawn
	// on; the credit itself is woke - next while that is positive.
	woke time.Time
}

// NewLimiter returns a limiter enforcing bytesPerSec on clk. A
// non-positive rate means unlimited.
func NewLimiter(clk clock.Clock, bytesPerSec float64) *Limiter {
	l := &Limiter{clk: clk}
	l.rate.Store(math.Float64bits(bytesPerSec))
	return l
}

// Rate returns the configured rate in bytes/second (<=0 unlimited).
func (l *Limiter) Rate() float64 {
	if l == nil {
		return 0
	}
	return math.Float64frombits(l.rate.Load())
}

// SetRate re-shapes the limiter to bytesPerSec (<= 0 unlimited) for future
// Takes. Accrued pacing debt is preserved, not repriced: bytes charged
// before the change keep the wait they were already assessed, and a rate
// drop to zero simply stops assessing new waits (a pending sub-granularity
// debt is never paid). Safe concurrently with Take.
func (l *Limiter) SetRate(bytesPerSec float64) {
	l.rate.Store(math.Float64bits(bytesPerSec))
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
	return l.TakeNAt(count, n, time.Time{})
}

// TakeNAt is TakeN for a caller holding a reading of the limiter's clock
// taken before the call (zero: none). A charge that cannot park even priced
// at that reading — its debt stays under limiterGranularity past it, and no
// oversleep credit is on the books — is priced there and reads no clock;
// every other charge reads the clock as TakeN does, so whether and until
// when a charge parks is unchanged. Priced at an earlier reading, a charge
// into a bucket that drained since restarts it up to the reading's age early:
// idle link time pays for at most the charge's own cost, so the stream runs
// ahead of the rate by less than limiterGranularity beyond TakeN's bound.
func (l *Limiter) TakeNAt(count int, n int64, at time.Time) time.Duration {
	if l == nil || count <= 0 || n <= 0 {
		return 0
	}
	rate := l.Rate()
	if rate <= 0 {
		return 0
	}
	// A charge that rounds to less than one nanosecond cannot advance the
	// bucket (the duration truncates to zero in charge), so skip the lock
	// and clock read entirely. The rate is re-read under the lock: a racing
	// SetRate may price this charge at either rate, but never corrupts the
	// bucket.
	if float64(n)*float64(time.Second) < rate {
		return 0
	}
	return l.charge(n, at)
}

// charge folds n bytes of debt into the bucket and parks until the bucket
// deadline once the accumulated wait crosses the granularity, returning the
// time it was parked. The rate is re-read under the lock (see TakeN). now is
// at only when the charge cannot park from there (TakeNAt).
func (l *Limiter) charge(n int64, at time.Time) time.Duration {
	l.mu.Lock()
	rate := l.Rate()
	if rate <= 0 {
		l.mu.Unlock()
		return 0
	}
	cost := time.Duration(float64(n) / rate * float64(time.Second))
	now := at
	if at.IsZero() || l.woke.After(l.next) || max(l.next.Sub(at), 0)+cost >= limiterGranularity {
		now = l.clk.Now()
	}
	if l.next.Before(now) {
		// The bucket drained before this charge arrived. The time since is
		// idle link time and is forgiven — except the stretch up to a late
		// wake-up, which was the timer, not the stream: that much stays as
		// credit while the stream keeps the limiter busy.
		credit := l.woke.Sub(l.next)
		if credit <= 0 || now.Sub(l.woke) >= limiterGranularity {
			credit = 0
		} else if credit > limiterMaxCredit {
			credit = limiterMaxCredit
		}
		l.next, l.woke = now.Add(-credit), now
	}
	l.next = l.next.Add(cost)
	wait := l.next.Sub(now)
	l.mu.Unlock()
	if wait < limiterGranularity {
		return 0
	}
	l.clk.Sleep(wait)
	l.mu.Lock()
	woke := l.clk.Now()
	if woke.After(l.next) {
		l.woke = woke // overslept past every queued deadline: grant credit
	}
	l.mu.Unlock()
	obsParks.Inc(0)
	obsParkLate.Observe(0, int64(woke.Sub(now)-wait))
	return woke.Sub(now)
}

// Checkpoint is one incremental progress record of a stream.
type Checkpoint struct {
	StreamID string
	Offset   int64
	At       time.Time
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

// Len returns the number of streams with recorded checkpoints.
func (c *CheckpointLog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.last)
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
	// Limiters are applied to every chunk in order (source container TC
	// class, then destination node NIC). Nil entries are skipped.
	Limiters []*Limiter
	// Latency is a fixed per-transfer latency applied before the first byte
	// (connection setup / broker hop).
	Latency time.Duration
	// Log receives incremental checkpoints after every chunk; nil disables.
	Log *CheckpointLog
	// FailAfter injects a failure once at least FailAfter bytes have been
	// sent; negative disables injection.
	FailAfter int64
	// Clock paces Latency; defaults to the wall clock.
	Clock clock.Clock
}

// Deliver is called for every chunk that arrives at the destination.
// offset is the position of the chunk's first byte, total the payload size.
type Deliver func(offset int64, chunk []byte, total int64)

// Run moves the payload from the given offset, invoking deliver per chunk.
// It returns the number of bytes delivered in this run (not counting the
// resumed prefix) and the first error.
func (t *Transfer) Run(fromOffset int64, deliver Deliver) (int64, error) {
	clk := t.Clock
	if clk == nil {
		clk = clock.NewWall()
	}
	if t.Log != nil && t.StreamID == "" {
		return 0, fmt.Errorf("pipe: transfer with Log requires StreamID")
	}
	if fromOffset < 0 || fromOffset > int64(len(t.Payload)) {
		return 0, fmt.Errorf("pipe: resume offset %d out of range [0,%d]", fromOffset, len(t.Payload))
	}
	if t.Latency > 0 {
		clk.Sleep(t.Latency)
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
			t.Log.Record(Checkpoint{StreamID: t.StreamID, Offset: off, At: clk.Now()})
		}
	}
	return sent, nil
}

// RunAll is Run from offset 0 collecting the whole payload into a buffer and
// returning it; convenient for local pipes and tests.
func (t *Transfer) RunAll() ([]byte, error) {
	buf := make([]byte, len(t.Payload))
	_, err := t.Run(0, func(off int64, chunk []byte, _ int64) {
		copy(buf[off:], chunk)
	})
	if err != nil {
		return nil, err
	}
	return buf, nil
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
