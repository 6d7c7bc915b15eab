package wmm

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/dataflow"
)

// modelSink is the reference the striped sink is compared against: one flat
// map, no stripes, no heap, and the passive-expire policy applied in full
// at the start of every operation — except Clear, which the sink also runs
// without an expiry pass (a node failure loses the data wherever it was).
type modelSink struct {
	opts    Options
	entries map[Key]*modelEntry
	stats   Stats
}

type modelEntry struct {
	val       dataflow.Value
	remaining int
	expiresAt time.Duration
	tier      Tier
}

func (m *modelSink) expire(at time.Duration) int {
	n := 0
	for key, e := range m.entries {
		if m.opts.TTL <= 0 || e.tier != Memory || e.expiresAt > at {
			continue
		}
		n++
		m.stats.Expirations++
		if e.remaining <= 0 {
			delete(m.entries, key) // fully consumed: dropped, not spilled
			continue
		}
		e.tier = Disk
	}
	return n
}

// tierBytes returns the byte and entry count of one tier.
func (m *modelSink) tierBytes(tier Tier) (bytes int64, n int) {
	for _, e := range m.entries {
		if e.tier == tier {
			bytes += e.val.Size
			n++
		}
	}
	return bytes, n
}

func (m *modelSink) put(at time.Duration, key Key, v dataflow.Value, consumers int) {
	m.expire(at)
	if consumers < 1 {
		consumers = 1
	}
	m.stats.Puts++
	m.entries[key] = &modelEntry{val: v, remaining: consumers, expiresAt: at + m.opts.TTL, tier: Memory}
	if mem, _ := m.tierBytes(Memory); mem > m.stats.PeakMemBytes {
		m.stats.PeakMemBytes = mem
	}
}

func (m *modelSink) get(at time.Duration, key Key) (dataflow.Value, Tier, bool) {
	m.expire(at)
	e := m.entries[key]
	switch {
	case e == nil:
		m.stats.Misses++
		return dataflow.Value{}, Miss, false
	case e.tier == Memory:
		m.stats.MemHits++
	default:
		m.stats.DiskHits++
	}
	e.remaining--
	if e.remaining <= 0 && !m.opts.DisableProactive {
		delete(m.entries, key)
		if e.tier == Memory { // only memory-tier frees count as proactive
			m.stats.ProactiveReleases++
		}
	}
	return e.val, e.tier, true
}

func (m *modelSink) releaseRequest(at time.Duration, reqID string) {
	m.expire(at)
	for key := range m.entries {
		if key.ReqID == reqID {
			delete(m.entries, key)
		}
	}
}

// modelOpts decodes one byte into a point of the option matrix
// {TTL 0, short} × {DisableProactive} × {Shards 1, 8}.
func modelOpts(b byte) Options {
	o := Options{Shards: 1, DisableProactive: b&2 != 0}
	if b&1 != 0 {
		o.TTL = 10 * time.Millisecond
	}
	if b&4 != 0 {
		o.Shards = 8
	}
	return o
}

// modelKeys are the keys an op stream addresses: 3 requests × 2 functions ×
// 2 data names, few enough that re-puts and repeat gets are common.
var modelKeys = func() (keys []Key) {
	for i := 0; i < 12; i++ {
		keys = append(keys, Key{ReqID: fmt.Sprintf("r%d", i%3), Fn: fmt.Sprintf("f%d", i/3%2), Data: fmt.Sprintf("d%d", i/6)})
	}
	return keys
}()

// runModel decodes data into an op stream (three bytes per op: kind, key,
// arguments) over modelKeys, applies it to a Sink and to the
// model, and fails on the first observable difference. At one stripe the
// sink expires exactly when the model does, so every gauge and counter
// must match after every op. With more stripes expiry is lazy per stripe:
// per-op results still match (an access expires its own stripe first), the
// gauges only after a closing ExpireSweep, and PeakMemBytes not at all (a
// past-TTL entry on a quiet stripe is still charged to memory).
func runModel(t testing.TB, opts Options, data []byte) Stats {
	s := NewSink(opts)
	m := &modelSink{opts: opts, entries: make(map[Key]*modelEntry)}
	exact := len(s.shards) == 1
	at := time.Duration(0)
	compare := func(step int, op string, key Key) {
		t.Helper()
		memB, memN := m.tierBytes(Memory)
		diskB, _ := m.tierBytes(Disk)
		got, want := s.Stats(), m.stats
		if !exact {
			got.PeakMemBytes, want.PeakMemBytes = 0, 0
		}
		if s.MemBytes() != memB || s.DiskBytes() != diskB || memEntries(s) != memN || got != want {
			t.Fatalf("%+v step %d %s(%v, %v):\nsink  mem=%d disk=%d len=%d %+v\nmodel mem=%d disk=%d len=%d %+v",
				opts, step, op, at, key, s.MemBytes(), s.DiskBytes(), memEntries(s), got, memB, diskB, memN, want)
		}
	}
	for step := 0; len(data) >= 3; step++ {
		kind, kb, arg := data[0]%32, int(data[1]), data[2]
		data = data[3:]
		at += time.Duration([8]int{0, 0, 0, 0, 0, 1, 1, 3}[arg%8]) * time.Millisecond
		key := modelKeys[kb%len(modelKeys)]
		val := dataflow.Value{Size: 1 + int64(arg>>5), Payload: strconv.AppendInt(nil, int64(step), 10)}
		consumers := int(arg>>3) % 4 // 0 is clamped to 1 by the sink
		op := "Put"
		switch {
		case kind < 11:
			s.Put(at, key, val, consumers)
			m.put(at, key, val, consumers)
		case kind < 26:
			op = "Get"
			gv, gt, gok := s.Get(at, key)
			wv, wt, wok := m.get(at, key)
			if !sameValue(gv, wv) || gt != wt || gok != wok {
				t.Fatalf("%+v step %d %s(%v, %v) = (%v, %v, %v), model (%v, %v, %v)",
					opts, step, op, at, key, gv, gt, gok, wv, wt, wok)
			}
		case kind < 28:
			op = "ReleaseRequest"
			s.ReleaseRequest(at, key.ReqID)
			m.releaseRequest(at, key.ReqID)
		case kind == 28:
			op = "ExpireSweep"
			if got, want := s.ExpireSweep(at), m.expire(at); exact && got != want {
				t.Fatalf("%+v step %d ExpireSweep(%v) = %d, model %d", opts, step, at, got, want)
			}
		case kind < 31:
			// A batch with a same-batch duplicate: key, a neighbour, key again.
			op = "PutBatch"
			other := key
			other.Data = "d2"
			reqs := []PutReq{{key, val, consumers}, {other, val, 2}, {key, val, 1}}
			s.PutBatch(at, reqs)
			for _, r := range reqs {
				m.put(at, r.Key, r.Val, r.Consumers)
			}
		default:
			op = "Clear"
			if !exact {
				// Clear wipes pending expirations uncounted; settle them on
				// both sides first so Expirations stays comparable.
				s.ExpireSweep(at)
				m.expire(at)
			}
			s.Clear(at)
			clear(m.entries)
		}
		checkSink(t, s)
		if exact {
			compare(step, op, key)
		}
	}
	s.ExpireSweep(at)
	m.expire(at)
	checkSink(t, s)
	compare(-1, "closing ExpireSweep", Key{})
	return m.stats
}

// TestSinkModel drives seeded op streams through the whole option matrix
// and requires the streams to have reached every counter the sink keeps.
func TestSinkModel(t *testing.T) {
	var seen Stats
	for cfg := byte(0); cfg < 8; cfg++ {
		for seed := int64(0); seed < 8; seed++ {
			data := make([]byte, 3*1500)
			rand.New(rand.NewSource(seed<<8 | int64(cfg))).Read(data)
			seen.Merge(runModel(t, modelOpts(cfg), data))
		}
	}
	if seen.MemHits == 0 || seen.DiskHits == 0 || seen.Misses == 0 || seen.ProactiveReleases == 0 ||
		seen.Expirations == 0 {
		t.Fatalf("op streams left a counter untouched: %+v", seen)
	}
}

// FuzzSinkModel is the same decoder under the fuzzer: the first byte picks
// the options, the rest is the op stream. The seed corpus holds two streams
// per point of the matrix (modelOpts reads the low three bits).
func FuzzSinkModel(f *testing.F) {
	for cfg := byte(0); cfg < 16; cfg++ {
		data := make([]byte, 1+3*40)
		rand.New(rand.NewSource(int64(cfg))).Read(data[1:])
		data[0] = cfg
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runModel(t, modelOpts(data[0]), data[1:])
	})
}
