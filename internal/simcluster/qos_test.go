package simcluster

import (
	"testing"
	"time"

	"repro/internal/qos"
	"repro/internal/workloads"
)

// TestQoSGenerousPlaneIsTransparent pins the mirror's zero-interference
// property: a QoS config that never saturates (huge capacity, no rate
// limits) consumes no virtual time at admission, so the run's latencies
// and completion counts are identical to the QoS-less engine's.
func TestQoSGenerousPlaneIsTransparent(t *testing.T) {
	run := func(qcfg *qos.Config) *Result {
		s := New(Config{
			Kind:    DataFlower,
			Profile: workloads.WordCount(4, 0),
			Seed:    7,
			QoS:     qcfg,
		})
		return s.RunOpenLoop(60, 24)
	}
	base := run(nil)
	qosRun := run(&qos.Config{Capacity: 1 << 20})
	if base.Completed != qosRun.Completed || base.Failed != qosRun.Failed {
		t.Fatalf("completions diverged: %d/%d vs %d/%d",
			base.Completed, base.Failed, qosRun.Completed, qosRun.Failed)
	}
	bv, qv := base.Latencies.Values(), qosRun.Latencies.Values()
	if len(bv) != len(qv) {
		t.Fatalf("latency sample sizes diverged: %d vs %d", len(bv), len(qv))
	}
	for i := range bv {
		if bv[i] != qv[i] {
			t.Fatalf("latency %d diverged: %v vs %v", i, bv[i], qv[i])
		}
	}
	if base.Tenants != nil {
		t.Fatal("QoS-less run reported tenant results")
	}
	def := qosRun.Tenants[qos.DefaultTenant]
	if def == nil || def.Completed != qosRun.Completed {
		t.Fatalf("default-tenant accounting missing or wrong: %+v", def)
	}
}

// TestQoSBooksBalance pins the per-tenant accounting invariants under a
// saturating two-tenant run: every issued request is admitted, throttled or
// shed, and every admitted one completes or fails.
func TestQoSBooksBalance(t *testing.T) {
	s := New(Config{
		Kind:               DataFlower,
		Profile:            workloads.WordCount(4, 0),
		Seed:               7,
		MaxContainersPerFn: 4,
		QoS: &qos.Config{
			Capacity: 6,
			Tenants: map[string]qos.Tenant{
				"hot":  {Weight: 1, Rate: 4, Burst: 4},
				"good": {Weight: 1},
			},
		},
	})
	res := s.RunTenantOpenLoop(
		map[string]float64{"hot": 1200, "good": 60},
		map[string]int{"hot": 120, "good": 20},
	)
	checkBooks(t, res)
	hot := res.Tenants["hot"]
	if hot.Issued != 120 || res.Tenants["good"].Issued != 20 {
		t.Fatalf("issue counts: hot %d good %d", hot.Issued, res.Tenants["good"].Issued)
	}
	if hot.Throttled == 0 {
		t.Fatalf("hot tenant at 20 req/s against a 4 req/s bucket never throttled: %+v", hot)
	}
}

// checkBooks asserts the per-tenant accounting invariants.
func checkBooks(t *testing.T, res *Result) {
	t.Helper()
	for name, tr := range res.Tenants {
		if tr.Issued != tr.Admitted+tr.Throttled+tr.Shed+tr.Abandoned {
			t.Fatalf("%s: issued %d != admitted %d + throttled %d + shed %d + abandoned %d",
				name, tr.Issued, tr.Admitted, tr.Throttled, tr.Shed, tr.Abandoned)
		}
		if tr.Admitted != tr.Completed+tr.Failed {
			t.Fatalf("%s: admitted %d != completed %d + failed %d",
				name, tr.Admitted, tr.Completed, tr.Failed)
		}
	}
}

// TestQoSQueueTimeoutAbandons pins the parked-timeout path: a request that
// times out while waiting in the fair queue is removed from it (so dead
// demand stops inflating the governor's queue-depth sample), counted as
// Abandoned rather than Failed, and the books still balance.
func TestQoSQueueTimeoutAbandons(t *testing.T) {
	s := New(Config{
		Kind:               DataFlower,
		Profile:            workloads.WordCount(4, 0),
		Seed:               7,
		MaxContainersPerFn: 2,
		RequestTimeout:     3 * time.Second,
		QoS: &qos.Config{
			Capacity:         2,
			GovernorInterval: -1, // admission+queueing only: timeouts, not sheds
			Tenants: map[string]qos.Tenant{
				"hot":    {Weight: 1},
				"steady": {Weight: 8},
			},
		},
	})
	// The hot tenant bursts 40 requests at t~0 while a backlogged 8x-weight
	// tenant keeps winning the weighted-fair grants, so most of the hot
	// queue sits parked past its 3s deadline. (A lone tenant can never
	// abandon: each queue-mate's timeout frees a slot exactly at its own
	// deadline cascade — starvation needs a heavier competitor.)
	res := s.RunTenantOpenLoop(
		map[string]float64{"hot": 60000, "steady": 1200},
		map[string]int{"hot": 40, "steady": 120})
	checkBooks(t, res)
	hot := res.Tenants["hot"]
	if hot.Abandoned == 0 {
		t.Fatalf("no queue timeouts for the starved tenant: %+v", hot)
	}
	if waiting, _, _ := s.qos.stride.Snapshot(); waiting != 0 {
		t.Fatalf("%d waiters left in the queue after the run", waiting)
	}
}

// TestQoSGovernorDisabledInSim pins the cross-plane contract: a negative
// GovernorInterval means admission-only on both planes, so even a
// saturating run never sheds (throttling still applies).
func TestQoSGovernorDisabledInSim(t *testing.T) {
	s := New(Config{
		Kind:               DataFlower,
		Profile:            workloads.WordCount(4, 0),
		Seed:               7,
		MaxContainersPerFn: 4,
		QoS: &qos.Config{
			Capacity:         4,
			GovernorInterval: -1,
			ShedQueueDepth:   1, // would shed instantly if the governor ran
			Tenants: map[string]qos.Tenant{
				"hot":  {Weight: 1, Rate: 4, Burst: 4},
				"good": {Weight: 1},
			},
		},
	})
	res := s.RunTenantOpenLoop(
		map[string]float64{"hot": 1200, "good": 60},
		map[string]int{"hot": 120, "good": 20},
	)
	for name, tr := range res.Tenants {
		if tr.Shed != 0 {
			t.Fatalf("%s: %d sheds with the governor disabled", name, tr.Shed)
		}
	}
	if res.Tenants["hot"].Throttled == 0 {
		t.Fatal("admission-only config stopped throttling too")
	}
}

// TestQoSIsolatesWellBehavedTenant is the mirror's overload-isolation
// check (the overload experiment's core claim, at test scale): a hot
// tenant at ~10x its share degrades the well-behaved tenant's p99 without
// QoS, and with admission + weighted-fair queueing + shedding the
// well-behaved tenant stays near its solo latency while the hot tenant is
// throttled.
func TestQoSIsolatesWellBehavedTenant(t *testing.T) {
	const (
		goodRPM, goodCount = 60.0, 25
		hotRPM, hotCount   = 600.0, 150
	)
	build := func(qcfg *qos.Config) *Sim {
		return New(Config{
			Kind:               DataFlower,
			Profile:            workloads.WordCount(4, 0),
			Seed:               7,
			MaxContainersPerFn: 4,
			QoS:                qcfg,
		})
	}
	qcfg := func() *qos.Config {
		return &qos.Config{
			Capacity: 8,
			Tenants: map[string]qos.Tenant{
				// The hot tenant's bucket matches its fair share (~1 req/s);
				// driving 10 req/s it is mostly throttled at admission.
				"hot":  {Weight: 1, Rate: 1.5, Burst: 3},
				"good": {Weight: 1},
			},
		}
	}

	// Solo baseline under a transparently-generous QoS config, so the
	// comparison below is per-tenant sample vs per-tenant sample.
	solo := build(&qos.Config{Capacity: 1 << 20}).RunTenantOpenLoop(
		map[string]float64{"good": goodRPM}, map[string]int{"good": goodCount})
	soloP99 := solo.Tenants["good"].Latencies.P99()

	noQoS := build(nil).RunTenantOpenLoop(
		map[string]float64{"good": goodRPM, "hot": hotRPM},
		map[string]int{"good": goodCount, "hot": hotCount})

	withQoS := build(qcfg()).RunTenantOpenLoop(
		map[string]float64{"good": goodRPM, "hot": hotRPM},
		map[string]int{"good": goodCount, "hot": hotCount})

	good := withQoS.Tenants["good"]
	hot := withQoS.Tenants["hot"]
	if good == nil || hot == nil {
		t.Fatal("tenant results missing")
	}
	if good.Completed != goodCount {
		t.Fatalf("good tenant lost requests: %+v", good)
	}
	if hot.Throttled+hot.Shed == 0 {
		t.Fatalf("hot tenant never throttled/shed: %+v", hot)
	}
	// Without QoS the hot tenant drags the good tenant's tail up; with it
	// the good tenant's p99 stays within 1.2x of its solo run.
	goodP99 := good.Latencies.P99()
	t.Logf("good p99: solo %.3fs, shared-noQoS %.3fs, shared-QoS %.3fs; hot throttled %d shed %d completed %d/%d",
		soloP99, noQoS.Latencies.P99(), goodP99, hot.Throttled, hot.Shed, hot.Completed, hot.Issued)
	if goodP99 > 1.2*soloP99 {
		t.Fatalf("good tenant p99 %.3fs exceeds 1.2x solo %.3fs under QoS", goodP99, soloP99)
	}
}
