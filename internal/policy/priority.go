package policy

import (
	"math"

	"rrnorm/internal/core"
)

// StaticPriority runs the m alive jobs with the best (lowest) fixed
// priority values, one machine each. It is the execution vehicle for
// offline orderings — e.g. the α-point order extracted from the LP
// relaxation (internal/round) — and for any externally computed list
// schedule. Jobs without an entry in the map get +Inf priority (run last);
// ties break by (Release, ID).
type StaticPriority struct {
	prio map[int]float64
	buf  rankBuf
}

// NewStaticPriority builds the policy from a job-ID → priority map (lower
// runs first).
func NewStaticPriority(prio map[int]float64) *StaticPriority {
	return &StaticPriority{prio: prio}
}

// Name implements core.Policy.
func (*StaticPriority) Name() string { return "PRIO" }

// PriorityOf returns the priority assigned to the given job ID (lower runs
// first), or +Inf when the ID has no entry. The fast engine (internal/fast)
// uses it to precompute the static rank order.
func (p *StaticPriority) PriorityOf(id int) float64 {
	if v, ok := p.prio[id]; ok {
		return v
	}
	return math.Inf(1)
}

// Clairvoyant implements core.Policy (the ordering may encode size
// knowledge, so it is classified clairvoyant).
func (*StaticPriority) Clairvoyant() bool { return true }

// Rates implements core.Policy: the k-th ranked job runs on the k-th
// fastest machine.
func (p *StaticPriority) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	pr := func(i int) float64 {
		if v, ok := p.prio[jobs[i].ID]; ok {
			return v
		}
		return math.Inf(1)
	}
	p.buf.topMEnv(len(jobs), env, rates, func(a, b int) bool {
		pa, pb := pr(a), pr(b)
		if pa != pb {
			return pa < pb
		}
		if jobs[a].Release != jobs[b].Release {
			return jobs[a].Release < jobs[b].Release
		}
		return jobs[a].ID < jobs[b].ID
	})
	return core.NoHorizon
}
