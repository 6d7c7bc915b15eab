package simnet

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

const mbps = 1e6 / 8 * 8 // 1 MB/s in bytes/sec for readable math

func TestSingleFlowFullRate(t *testing.T) {
	e := sim.NewEnv(1)
	f := NewFabric(e)
	src := f.NewEndpoint(1e6) // 1 MB/s
	dst := f.NewEndpoint(1e6)
	var done time.Duration
	e.Go(func(p *sim.Proc) {
		f.Transfer(p, 2e6, src, dst) // 2 MB at 1 MB/s -> 2s
		done = p.Now()
	})
	e.Run()
	if d := done.Seconds(); math.Abs(d-2) > 0.01 {
		t.Fatalf("transfer took %vs, want ~2s", d)
	}
}

func TestBottleneckIsMinEndpoint(t *testing.T) {
	e := sim.NewEnv(1)
	f := NewFabric(e)
	src := f.NewEndpoint(10e6)
	dst := f.NewEndpoint(1e6) // bottleneck
	var done time.Duration
	e.Go(func(p *sim.Proc) {
		f.Transfer(p, 1e6, src, dst)
		done = p.Now()
	})
	e.Run()
	if d := done.Seconds(); math.Abs(d-1) > 0.01 {
		t.Fatalf("transfer took %vs, want ~1s", d)
	}
}

func TestTwoFlowsShareEndpoint(t *testing.T) {
	e := sim.NewEnv(1)
	f := NewFabric(e)
	shared := f.NewEndpoint(2e6)
	a := f.NewEndpoint(1e9)
	b := f.NewEndpoint(1e9)
	var doneA, doneB time.Duration
	e.Go(func(p *sim.Proc) {
		f.Transfer(p, 2e6, a, shared)
		doneA = p.Now()
	})
	e.Go(func(p *sim.Proc) {
		f.Transfer(p, 2e6, b, shared)
		doneB = p.Now()
	})
	e.Run()
	// Each gets 1 MB/s while both are active -> both finish ~2s.
	if math.Abs(doneA.Seconds()-2) > 0.02 || math.Abs(doneB.Seconds()-2) > 0.02 {
		t.Fatalf("doneA=%v doneB=%v, want ~2s each", doneA, doneB)
	}
}

func TestLateFlowSpeedsUpAfterFirstFinishes(t *testing.T) {
	e := sim.NewEnv(1)
	f := NewFabric(e)
	shared := f.NewEndpoint(2e6)
	var doneSmall, doneBig time.Duration
	e.Go(func(p *sim.Proc) {
		f.Transfer(p, 1e6, shared)
		doneSmall = p.Now()
	})
	e.Go(func(p *sim.Proc) {
		f.Transfer(p, 3e6, shared)
		doneBig = p.Now()
	})
	e.Run()
	// Shared 2 MB/s: both at 1 MB/s until small finishes at t=1 (1 MB);
	// big has 2 MB left, now at 2 MB/s -> finishes at t=2.
	if math.Abs(doneSmall.Seconds()-1) > 0.02 {
		t.Fatalf("small done at %v, want ~1s", doneSmall)
	}
	if math.Abs(doneBig.Seconds()-2) > 0.02 {
		t.Fatalf("big done at %v, want ~2s", doneBig)
	}
}

func TestMaxMinFairnessAsymmetric(t *testing.T) {
	e := sim.NewEnv(1)
	f := NewFabric(e)
	// Flow1: via slowSrc (0.5 MB/s) and bigLink (3 MB/s).
	// Flow2: via fastSrc (10 MB/s) and bigLink.
	// Max-min: flow1 limited to 0.5; flow2 gets min(10, 3-0.5) = 2.5.
	slowSrc := f.NewEndpoint(0.5e6)
	fastSrc := f.NewEndpoint(10e6)
	bigLink := f.NewEndpoint(3e6)
	var done1, done2 time.Duration
	e.Go(func(p *sim.Proc) {
		f.Transfer(p, 0.5e6, slowSrc, bigLink) // 1s at 0.5 MB/s
		done1 = p.Now()
	})
	e.Go(func(p *sim.Proc) {
		f.Transfer(p, 2.5e6, fastSrc, bigLink) // 1s at 2.5 MB/s
		done2 = p.Now()
	})
	e.Run()
	if math.Abs(done1.Seconds()-1) > 0.02 {
		t.Fatalf("flow1 done at %v, want ~1s", done1)
	}
	if math.Abs(done2.Seconds()-1) > 0.05 {
		t.Fatalf("flow2 done at %v, want ~1s", done2)
	}
}

func TestZeroSizeCompletesImmediately(t *testing.T) {
	e := sim.NewEnv(1)
	f := NewFabric(e)
	ep := f.NewEndpoint(1)
	var done time.Duration
	e.Go(func(p *sim.Proc) {
		f.Transfer(p, 0, ep)
		done = p.Now()
	})
	e.Run()
	if done != 0 {
		t.Fatalf("zero transfer took %v", done)
	}
}

func TestUnlimitedEndpointsInstantaneous(t *testing.T) {
	e := sim.NewEnv(1)
	f := NewFabric(e)
	a := f.NewEndpoint(0) // unlimited
	b := f.NewEndpoint(-1)
	var done time.Duration
	e.Go(func(p *sim.Proc) {
		f.Transfer(p, 1e9, a, b)
		done = p.Now()
	})
	e.Run()
	if done > time.Millisecond {
		t.Fatalf("unlimited transfer took %v", done)
	}
}

func TestStartTransferAsync(t *testing.T) {
	e := sim.NewEnv(1)
	f := NewFabric(e)
	ep := f.NewEndpoint(1e6)
	var overlapped bool
	e.Go(func(p *sim.Proc) {
		ev := f.StartTransfer(1e6, ep) // 1s
		p.Sleep(500 * time.Millisecond)
		if !ev.Triggered() {
			overlapped = true // we did useful "work" while transferring
		}
		p.Wait(ev)
		if p.Now() < time.Second {
			t.Error("transfer finished too early")
		}
	})
	e.Run()
	if !overlapped {
		t.Fatal("StartTransfer did not overlap with compute")
	}
}

func TestEndpointActiveFlowTracking(t *testing.T) {
	e := sim.NewEnv(1)
	f := NewFabric(e)
	ep := f.NewEndpoint(1e6)
	e.Go(func(p *sim.Proc) {
		ev := f.StartTransfer(1e6, ep)
		if len(f.flows) != 1 {
			t.Errorf("active = %d, want 1", len(f.flows))
		}
		p.Wait(ev)
	})
	e.Run()
	if len(f.flows) != 0 {
		t.Fatal("fabric should be idle")
	}
}

func TestManyFlowsFairShare(t *testing.T) {
	e := sim.NewEnv(1)
	f := NewFabric(e)
	shared := f.NewEndpoint(10e6)
	const n = 10
	dones := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		i := i
		e.Go(func(p *sim.Proc) {
			f.Transfer(p, 1e6, shared) // each gets 1 MB/s -> 1s
			dones[i] = p.Now()
		})
	}
	e.Run()
	for i, d := range dones {
		if math.Abs(d.Seconds()-1) > 0.05 {
			t.Fatalf("flow %d done at %v, want ~1s", i, d)
		}
	}
}

// Property: total transfer time of equal flows over a shared endpoint is
// n*size/capacity (work conservation), regardless of n.
func TestWorkConservationProperty(t *testing.T) {
	f := func(nRaw, sizeRaw uint8) bool {
		n := int(nRaw%8) + 1
		size := float64(int(sizeRaw%16)+1) * 1e5
		e := sim.NewEnv(1)
		fab := NewFabric(e)
		shared := fab.NewEndpoint(1e6)
		var last time.Duration
		for i := 0; i < n; i++ {
			e.Go(func(p *sim.Proc) {
				fab.Transfer(p, int64(size), shared)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.Run()
		want := float64(n) * size / 1e6
		return math.Abs(last.Seconds()-want) < 0.05*want+0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a flow never finishes faster than size/min-endpoint-capacity.
func TestNoFasterThanBottleneckProperty(t *testing.T) {
	f := func(sizeRaw, capRaw uint8) bool {
		size := float64(int(sizeRaw%16)+1) * 1e5
		capacity := float64(int(capRaw%8)+1) * 1e5
		e := sim.NewEnv(1)
		fab := NewFabric(e)
		a := fab.NewEndpoint(1e9)
		b := fab.NewEndpoint(capacity)
		var done time.Duration
		e.Go(func(p *sim.Proc) {
			fab.Transfer(p, int64(size), a, b)
			done = p.Now()
		})
		e.Run()
		minTime := size / capacity
		return done.Seconds() >= minTime-0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

var _ = mbps // keep the constant available for future tests
