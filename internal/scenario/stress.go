package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/simcluster"
)

// This file is the seeded stress expander: a StressSpec turns one scenario
// into a large-fleet chaos run. Every draw — template picks, chaos victims
// — comes from one rand.Rand seeded with the scenario seed, so the same
// file and seed always expand to the identical fleet and fault schedule
// (and therefore, on the deterministic sim kernel, to a byte-identical
// report).

// stressRand is the scenario-level RNG: deliberately separate from the
// engine's own Config.Seed stream (the engine re-seeds from the same value,
// so arrivals stay deterministic too).
func stressRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// drawFleet draws n node shapes from the weighted templates. An empty
// template set yields nil (the cluster-wide defaults).
func (f *FleetSpec) drawFleet(n int, r *rand.Rand) []simcluster.NodeSpec {
	if len(f.Templates) == 0 {
		return nil
	}
	total := 0.0
	for _, t := range f.Templates {
		total += t.weight()
	}
	fleet := make([]simcluster.NodeSpec, n)
	for i := range fleet {
		pick := r.Float64() * total
		acc := 0.0
		chosen := f.Templates[len(f.Templates)-1]
		for _, t := range f.Templates {
			acc += t.weight()
			if pick < acc {
				chosen = t
				break
			}
		}
		fleet[i] = simcluster.NodeSpec{NICBps: chosen.NICBps, DiskBps: chosen.DiskBps}
	}
	return fleet
}

// weight resolves the template's default weight.
func (t NodeTemplate) weight() float64 {
	if t.Weight == 0 {
		return 1
	}
	return t.Weight
}

// expandStress grows the compiled config to the stress fleet and appends
// the seeded chaos schedule: FailureRate x Nodes distinct victims, killed
// KillSpacing apart from Start, each recovering RecoverAfter later. The
// declarative events[] schedule (already compiled) is kept — stress adds
// chaos on top of it.
func (sp *Spec) expandStress(cfg *simcluster.Config) {
	st := sp.Stress
	r := stressRand(sp.seed())
	if len(sp.Fleet.Templates) > 0 {
		cfg.Fleet = sp.Fleet.drawFleet(st.Nodes, r)
	} else {
		cfg.Workers = st.Nodes
	}
	kills := int(st.FailureRate * float64(st.Nodes))
	if kills == 0 {
		return
	}
	spacing := st.KillSpacing.D()
	if spacing == 0 {
		spacing = 100 * time.Millisecond
	}
	victims := r.Perm(st.Nodes)[:kills]
	at := st.Start.D()
	for _, v := range victims {
		node := fmt.Sprintf("w%d", v+1)
		cfg.Faults = append(cfg.Faults, simcluster.FaultEvent{
			At: at, Node: node, Kind: simcluster.KillNode,
		})
		if st.RecoverAfter > 0 {
			cfg.Faults = append(cfg.Faults, simcluster.FaultEvent{
				At: at + st.RecoverAfter.D(), Node: node, Kind: simcluster.RecoverNode,
			})
		}
		at += spacing
	}
}
