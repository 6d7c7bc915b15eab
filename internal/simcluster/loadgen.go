package simcluster

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// completionTimes are needed to window closed-loop throughput; record them
// on complete().
func (s *Sim) recordCompletion(at time.Duration) {
	s.completions = append(s.completions, at)
}

// RunOne executes a single request to completion and returns the result
// with the request's stages (used by the investigation experiments and the
// Fig. 2(c) and Fig. 13 timelines).
func (s *Sim) RunOne() *Result {
	s.recording = true
	s.env.Go(func(p *sim.Proc) {
		req := s.invoke(p, s.cfg.Profile)
		p.Wait(req.done)
	})
	s.env.Run()
	return s.result(s.makespan())
}

// openLoopGen launches one open-loop arrival generator process: count
// requests at the given rate (requests per minute, exponential
// inter-arrival gaps capped at 4x the mean — the shared arrival
// discipline), each invoking pick(i)'s workflow in its own request
// process. pick runs in the generator (its randomness draws stay in arrival
// order).
func (s *Sim) openLoopGen(rpm float64, count int, pick func(i int) *workloads.Profile) {
	meanGap := time.Duration(60 / rpm * float64(time.Second))
	s.env.Go(func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			prof := pick(i)
			s.env.Go(func(rp *sim.Proc) {
				req := s.invoke(rp, prof)
				rp.Wait(req.done)
			})
			gap := time.Duration(s.env.Rand().ExpFloat64() * float64(meanGap))
			if gap > 4*meanGap {
				gap = 4 * meanGap
			}
			p.Sleep(gap)
		}
	})
}

// openLoop is the shared asynchronous arrival driver: one generator, run to
// completion. Cold-start transients are excluded from the latency sample
// (the paper's figures report steady-state latencies).
func (s *Sim) openLoop(rpm float64, count int, pick func(i int) *workloads.Profile) *Result {
	if rpm <= 0 || count <= 0 {
		return s.result(0)
	}
	s.warmupSeq = int64(count / 5)
	if s.warmupSeq > 12 {
		s.warmupSeq = 12
	}
	s.openLoopGen(rpm, count, pick)
	s.env.Run()
	return s.result(s.makespan())
}

// RunOpenLoop generates count asynchronous requests at the given rate
// (requests per minute) with exponential inter-arrival times, then runs to
// completion. This is the paper's asynchronous invocation pattern (§9.1).
func (s *Sim) RunOpenLoop(rpm float64, count int) *Result {
	return s.openLoop(rpm, count, func(int) *workloads.Profile { return s.cfg.Profile })
}

// RunSkewedOpenLoop is RunOpenLoop with each arrival's workflow drawn from
// a Zipf distribution over the deployed workflows in deployment order —
// the primary profile is rank 0 and therefore the hot workflow. skew is
// the Zipf s parameter (values <= 1 default to 1.5; larger is hotter).
// With a single deployed workflow it degenerates to RunOpenLoop. This is
// the workload replica sets exist for: popularity skew concentrating load
// on one workflow's functions.
func (s *Sim) RunSkewedOpenLoop(rpm float64, count int, skew float64) *Result {
	if skew <= 1 {
		skew = 1.5
	}
	zipf := rand.NewZipf(s.env.Rand(), skew, 1, uint64(len(s.profs)-1))
	return s.openLoop(rpm, count, func(int) *workloads.Profile {
		return s.profs[int(zipf.Uint64())]
	})
}

// RunBurst generates a low load followed by a sudden burst (§9.5: wc jumps
// from 10 rpm to 100 rpm; 110 requests over two minutes).
func (s *Sim) RunBurst(lowRPM, highRPM float64, lowDur, highDur time.Duration) *Result {
	s.env.Go(func(p *sim.Proc) {
		phase := func(rpm float64, dur time.Duration) {
			gap := time.Duration(60 / rpm * float64(time.Second))
			end := p.Now() + dur
			for p.Now() < end {
				s.env.Go(func(rp *sim.Proc) {
					req := s.invoke(rp, s.cfg.Profile)
					rp.Wait(req.done)
				})
				p.Sleep(gap)
			}
		}
		phase(lowRPM, lowDur)
		phase(highRPM, highDur)
	})
	s.env.Run()
	return s.result(s.makespan())
}

// RunClosedLoop runs the synchronous invocation pattern: clients issue a
// request, wait for completion, and immediately issue the next, for the
// given measurement window. Throughput is completed requests per minute
// inside the window. When colocated profiles exist, clients are spread
// round-robin across all workflows.
func (s *Sim) RunClosedLoop(clients int, window time.Duration) *Result {
	for i := 0; i < clients; i++ {
		prof := s.profs[i%len(s.profs)]
		s.env.Go(func(p *sim.Proc) {
			for p.Now() < window {
				req := s.invoke(p, prof)
				p.Wait(req.done)
			}
		})
	}
	s.env.RunUntil(window)
	res := s.result(window)
	inWindow := 0
	for _, at := range s.completions {
		if at <= window {
			inWindow++
		}
	}
	res.ThroughputRPM = float64(inWindow) / window.Minutes()
	return res
}

// RunColocatedOpenLoop drives every deployed workflow (primary plus
// colocated) at its own open-loop rate for count requests each (§9.8).
// rpmByName maps benchmark name to requests/minute; missing entries default
// to defaultRPM.
func (s *Sim) RunColocatedOpenLoop(rpmByName map[string]float64, defaultRPM float64, countPerWorkflow int) *Result {
	for _, prof := range s.profs {
		prof := prof
		rpm, ok := rpmByName[prof.Name]
		if !ok {
			rpm = defaultRPM
		}
		if rpm <= 0 {
			continue
		}
		s.openLoopGen(rpm, countPerWorkflow,
			func(int) *workloads.Profile { return prof })
	}
	s.env.Run()
	return s.result(s.makespan())
}

// makespan is the last completion time (falls back to current sim time).
func (s *Sim) makespan() time.Duration {
	last := time.Duration(0)
	for _, at := range s.completions {
		if at > last {
			last = at
		}
	}
	if last == 0 {
		last = s.env.Now()
	}
	return last
}

// result assembles the Result at the given horizon.
func (s *Sim) result(horizon time.Duration) *Result {
	res := &Result{
		System:      s.cfg.Kind.String(),
		Benchmark:   s.cfg.Profile.Name,
		Latencies:   &s.latencies,
		Completed:   s.completed,
		Failed:      s.failed,
		SimDuration: horizon,
		MemGBs:      s.memInt.Finish(horizon),
		FnStats:     s.fnStats,
		CPUBusy:     &s.cpuBusy,
		NetBusy:     &s.netBusy,
		Trace:       s.stages,
		Containers:  s.containers,
	}
	res.Recovered = s.recoveries
	res.RecoveryLat = &s.recoveryLat
	res.Replays = s.replays
	if horizon > 0 {
		res.ThroughputRPM = float64(s.completed) / horizon.Minutes()
	}
	if s.completed > 0 {
		res.MemGBsPerReq = res.MemGBs / float64(s.completed)
		cache := 0.0
		for _, n := range s.nodes {
			cache += n.sink.MemIntegralMBs(horizon)
		}
		res.CacheMBsPerReq = cache / float64(s.completed)
	}
	for _, n := range s.nodes {
		res.SinkStats.Merge(n.sink.Stats())
	}
	if math.IsNaN(res.ThroughputRPM) || math.IsInf(res.ThroughputRPM, 0) {
		res.ThroughputRPM = 0
	}
	for _, c := range s.ctrs {
		res.OverlapSec += timelineOverlapSec(&c.cpuT, &c.netT, horizon)
		res.CPUBusySec += timelineBusySec(&c.cpuT, horizon)
	}
	return res
}

// timelineOverlapSec integrates the time both timelines are positive.
func timelineOverlapSec(a, b *Timeline, horizon time.Duration) float64 {
	type edge struct {
		at    time.Duration
		isA   bool
		level float64
	}
	var edges []edge
	for _, pt := range a.points {
		edges = append(edges, edge{at: pt.at, isA: true, level: pt.level})
	}
	for _, pt := range b.points {
		edges = append(edges, edge{at: pt.at, isA: false, level: pt.level})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var la, lb float64
	var last time.Duration
	total := 0.0
	for _, e := range edges {
		if e.at > horizon {
			break
		}
		if la > 0 && lb > 0 {
			total += (e.at - last).Seconds()
		}
		last = e.at
		if e.isA {
			la = e.level
		} else {
			lb = e.level
		}
	}
	if la > 0 && lb > 0 && horizon > last {
		total += (horizon - last).Seconds()
	}
	return total
}

// timelineBusySec integrates the time the timeline is positive.
func timelineBusySec(a *Timeline, horizon time.Duration) float64 {
	var level float64
	var last time.Duration
	total := 0.0
	for _, pt := range a.points {
		if pt.at > horizon {
			break
		}
		if level > 0 {
			total += (pt.at - last).Seconds()
		}
		last = pt.at
		level = pt.level
	}
	if level > 0 && horizon > last {
		total += (horizon - last).Seconds()
	}
	return total
}
