package pipe

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
)

// runAll runs t from offset 0 and returns the reassembled payload.
func runAll(t *Transfer) ([]byte, error) {
	buf := make([]byte, len(t.Payload))
	_, err := t.Run(0, func(off int64, chunk []byte, _ int64) { copy(buf[off:], chunk) })
	if err != nil {
		return nil, err
	}
	return buf, nil
}

func payload(n int) []byte {
	b := make([]byte, n)
	r := rand.New(rand.NewSource(int64(n)))
	r.Read(b)
	return b
}

func TestSmallDataSingleDelivery(t *testing.T) {
	p := payload(1024)
	tr := &Transfer{Payload: p, FailAfter: -1}
	var calls int
	var got []byte
	_, err := tr.Run(0, func(off int64, chunk []byte, total int64) {
		calls++
		if off != 0 || total != int64(len(p)) {
			t.Errorf("off=%d total=%d", off, total)
		}
		got = append(got, chunk...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("small data used %d deliveries, want 1", calls)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("payload corrupted")
	}
}

func TestLargeDataChunked(t *testing.T) {
	p := payload(200 << 10) // 200 KB
	tr := &Transfer{Payload: p, ChunkSize: 64 << 10, FailAfter: -1}
	var calls int
	got, err := runAll(&Transfer{Payload: p, ChunkSize: 64 << 10, FailAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("payload corrupted")
	}
	_, err = tr.Run(0, func(int64, []byte, int64) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 { // 64+64+64+8
		t.Fatalf("chunks = %d, want 4", calls)
	}
}

func TestThresholdBoundary(t *testing.T) {
	// Exactly 16 KB -> socket path (1 call); 16 KB + 1 -> chunked.
	for _, tc := range []struct {
		size, wantCalls int
	}{
		{SmallDataThreshold, 1},
		{SmallDataThreshold + 1, 2},
	} {
		tr := &Transfer{Payload: payload(tc.size), ChunkSize: 16 << 10, FailAfter: -1}
		var calls int
		if _, err := tr.Run(0, func(int64, []byte, int64) { calls++ }); err != nil {
			t.Fatal(err)
		}
		if calls != tc.wantCalls {
			t.Fatalf("size %d: calls = %d, want %d", tc.size, calls, tc.wantCalls)
		}
	}
}

func TestCheckpointsAdvance(t *testing.T) {
	p := payload(150 << 10)
	log := NewCheckpointLog()
	tr := &Transfer{StreamID: "s1", Payload: p, ChunkSize: 64 << 10, Log: log, FailAfter: -1}
	if _, err := tr.Run(0, func(int64, []byte, int64) {}); err != nil {
		t.Fatal(err)
	}
	cp, ok := log.Last("s1")
	if !ok || cp.Offset != int64(len(p)) {
		t.Fatalf("checkpoint = %+v %v", cp, ok)
	}
	log.Clear("s1")
	if _, ok := log.Last("s1"); ok {
		t.Fatal("clear did not remove checkpoint")
	}
}

func TestFailureAndResume(t *testing.T) {
	p := payload(256 << 10)
	log := NewCheckpointLog()
	dst := make([]byte, len(p))
	deliver := func(off int64, chunk []byte, _ int64) { copy(dst[off:], chunk) }

	tr := &Transfer{StreamID: "s1", Payload: p, ChunkSize: 32 << 10, Log: log, FailAfter: 100 << 10}
	_, err := tr.Run(0, deliver)
	if !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	cp, ok := log.Last("s1")
	if !ok || cp.Offset == 0 {
		t.Fatal("no checkpoint before failure")
	}
	if cp.Offset >= int64(len(p)) {
		t.Fatal("checkpoint should be partial")
	}
	// ReDo from the last checkpoint without the fault.
	tr.FailAfter = -1
	n, err := tr.Resume(deliver)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(p))-cp.Offset {
		t.Fatalf("resumed %d bytes, want %d", n, int64(len(p))-cp.Offset)
	}
	if !bytes.Equal(dst, p) {
		t.Fatal("payload corrupted after resume")
	}
}

func TestSmallDataFailureRedoneWhole(t *testing.T) {
	p := payload(1 << 10)
	tr := &Transfer{Payload: p, FailAfter: 0}
	_, err := tr.Run(0, func(int64, []byte, int64) {})
	if !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("err = %v", err)
	}
	tr.FailAfter = -1
	got, err := runAll(tr)
	if err != nil || !bytes.Equal(got, p) {
		t.Fatal("redo failed")
	}
}

func TestResumeOffsetValidation(t *testing.T) {
	tr := &Transfer{Payload: payload(10), FailAfter: -1}
	if _, err := tr.Run(-1, func(int64, []byte, int64) {}); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := tr.Run(11, func(int64, []byte, int64) {}); err == nil {
		t.Fatal("past-end offset accepted")
	}
}

func TestLogRequiresStreamID(t *testing.T) {
	tr := &Transfer{Payload: payload(10), Log: NewCheckpointLog(), FailAfter: -1}
	if _, err := tr.Run(0, func(int64, []byte, int64) {}); err == nil {
		t.Fatal("missing StreamID accepted")
	}
}

func TestLimiterPacesBytes(t *testing.T) {
	clk := clock.NewWall()
	l := NewLimiter(clk, 1<<20) // 1 MB/s
	start := clk.Now()
	l.Take(100 << 10) // 100 KB -> ~0.1 s
	elapsed := clk.Now() - start
	if elapsed < 80*time.Millisecond {
		t.Fatalf("limiter too fast: %v", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("limiter too slow: %v", elapsed)
	}
}

func TestNilAndUnlimitedLimiter(t *testing.T) {
	var nilL *Limiter
	nilL.Take(1 << 30) // must not panic or block
	if nilL.Rate() != 0 {
		t.Fatal("nil limiter rate")
	}
	l := NewLimiter(clock.NewWall(), 0)
	start := time.Now()
	l.Take(1 << 30)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("unlimited limiter blocked")
	}
}

func TestTransferThroughLimiter(t *testing.T) {
	clk := clock.NewWall()
	l := NewLimiter(clk, 10<<20) // 10 MB/s
	p := payload(1 << 20)        // 1 MB -> ~0.1 s
	tr := &Transfer{Payload: p, Limiters: []*Limiter{l, nil}, FailAfter: -1}
	start := clk.Now()
	if _, err := tr.Run(0, func(int64, []byte, int64) {}); err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now() - start
	if elapsed < 80*time.Millisecond {
		t.Fatalf("transfer not paced: %v", elapsed)
	}
}

func TestCheckpointLogMonotone(t *testing.T) {
	log := NewCheckpointLog()
	log.Record(Checkpoint{StreamID: "s", Offset: 100})
	log.Record(Checkpoint{StreamID: "s", Offset: 50}) // stale, ignored
	cp, _ := log.Last("s")
	if cp.Offset != 100 {
		t.Fatalf("offset = %d, want 100", cp.Offset)
	}
	if len(log.last) != 1 {
		t.Fatalf("len = %d", len(log.last))
	}
}

// Property: for any payload and chunk size, delivered bytes reassemble the
// payload exactly, and resume-after-arbitrary-failure completes it.
func TestChunkingLosslessProperty(t *testing.T) {
	f := func(sizeRaw uint16, chunkRaw uint8, failRaw uint16) bool {
		size := int(sizeRaw)%(128<<10) + SmallDataThreshold + 1 // force streaming path
		chunkSize := (int(chunkRaw)%63 + 1) << 10
		p := payload(size)
		log := NewCheckpointLog()
		dst := make([]byte, size)
		deliver := func(off int64, chunk []byte, _ int64) { copy(dst[off:], chunk) }
		failAt := int64(failRaw) % int64(size)
		tr := &Transfer{StreamID: "s", Payload: p, ChunkSize: chunkSize, Log: log, FailAfter: failAt}
		_, err := tr.Run(0, deliver)
		if !errors.Is(err, ErrInjectedFailure) {
			return false
		}
		tr.FailAfter = -1
		if _, err := tr.Resume(deliver); err != nil {
			return false
		}
		return bytes.Equal(dst, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
