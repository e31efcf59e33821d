package policy

import (
	"math"
	"sort"

	"rrnorm/internal/core"
)

// Hybrid blends SRPT and FCFS in the style of Kuo's starvation-mitigation
// schedulers ("Balancing SRPT and FCFS via Starvation Mitigation"): every
// alive job's rate is the convex combination
//
//	rate_j = Theta·machine(fcfsRank_j) + (1−Theta)·machine(srptRank_j),
//
// where machine(r) is the capacity of the r-th machine under each ranking
// (a full machine for r < m on identical machines, the r-th fastest speed
// under a heterogeneous model). Theta = 0 is exactly SRPT, Theta = 1 is
// exactly FCFS, and intermediate values trade mean flow (SRPT's strength)
// against tail fairness (FCFS's) — the knob Kuo tunes for the ℓ2 norm.
// Feasibility is free: a convex combination of two feasible rank
// assignments respects every sorted-prefix capacity constraint.
//
// Starve > 0 adds the mitigation rule: a job whose age reaches Starve is
// promoted to the front of the SRPT ranking (promoted jobs order among
// themselves FCFS), so even under Theta = 0 a starving job eventually
// captures a machine. Starve = 0 disables promotion.
//
// Hybrid is clairvoyant (the SRPT half reads Remaining). Between engine
// events the SRPT ordering can shift — jobs drain at different blended
// rates — so Rates returns the earliest moment the current ranking changes:
// the first adjacent-pair crossing in remaining work, or the first
// promotion, whichever comes sooner.
type Hybrid struct {
	// Theta ∈ [0,1] is the FCFS weight (0 = pure SRPT, 1 = pure FCFS).
	Theta float64
	// Starve ≥ 0 is the age at which a job is promoted to the front of the
	// SRPT ranking; 0 disables starvation mitigation.
	Starve float64

	srpt rankBuf
}

// NewHybrid returns a Hybrid with the given FCFS weight and starvation
// threshold. Theta is clamped to [0,1]; negative Starve becomes 0.
func NewHybrid(theta, starve float64) *Hybrid {
	if math.IsNaN(theta) || theta < 0 {
		theta = 0
	}
	if theta > 1 {
		theta = 1
	}
	if math.IsNaN(starve) || starve < 0 {
		starve = 0
	}
	return &Hybrid{Theta: theta, Starve: starve}
}

// Name implements core.Policy.
func (*Hybrid) Name() string { return "HYBRID" }

// Clairvoyant implements core.Policy.
func (*Hybrid) Clairvoyant() bool { return true }

// promoted reports whether job j has aged past the starvation threshold.
func (p *Hybrid) promoted(j core.JobView) bool {
	return p.Starve > 0 && j.Age >= p.Starve
}

// srptOrder fills p.srpt.idx with the mitigation-adjusted SRPT ranking:
// promoted jobs first in FCFS order, then the rest by (Remaining, Release,
// ID). jobs arrive ordered by (Release, ID), so index order is FCFS order.
func (p *Hybrid) srptOrder(jobs []core.JobView) []int {
	n := len(jobs)
	if cap(p.srpt.idx) < n {
		p.srpt.idx = make([]int, n)
	}
	p.srpt.idx = p.srpt.idx[:n]
	for i := range p.srpt.idx {
		p.srpt.idx[i] = i
	}
	sort.SliceStable(p.srpt.idx, func(x, y int) bool {
		a, b := p.srpt.idx[x], p.srpt.idx[y]
		pa, pb := p.promoted(jobs[a]), p.promoted(jobs[b])
		if pa != pb {
			return pa
		}
		if pa { // both promoted: FCFS among themselves
			return a < b
		}
		if jobs[a].Remaining != jobs[b].Remaining {
			return jobs[a].Remaining < jobs[b].Remaining
		}
		return a < b
	})
	return p.srpt.idx
}

// blend writes the convex-combination rates given the SRPT ranking, rank r
// getting the r-th fastest machine under each ranking, then returns the
// re-plan horizon.
func (p *Hybrid) blend(jobs []core.JobView, order []int, env *core.MachineEnv, rates []float64) float64 {
	n := len(jobs)
	θ := p.Theta
	// FCFS rank of job i is i: the engine provides jobs in (Release, ID)
	// order (the same assumption LAPS makes).
	for i := 0; i < n; i++ {
		rates[i] = θ * env.RankSpeed(i)
	}
	for r, i := range order {
		rates[i] += (1 - θ) * env.RankSpeed(r)
	}

	horizon := math.Inf(1)
	if p.Starve > 0 {
		for _, j := range jobs {
			if p.promoted(j) {
				continue
			}
			if h := p.Starve - j.Age; h > 1e-12 && h < horizon {
				horizon = h
			}
		}
	}
	// First adjacent-pair crossing in the unpromoted SRPT suffix: job b
	// (behind) catches job a (ahead) when a drains slower. Crossings
	// between non-adjacent jobs happen strictly later than some adjacent
	// crossing, so adjacent pairs bound the first ranking change.
	for k := 0; k+1 < n; k++ {
		a, b := order[k], order[k+1]
		if p.promoted(jobs[a]) || p.promoted(jobs[b]) {
			continue
		}
		dRate := rates[b] - rates[a]
		if dRate <= 0 {
			continue
		}
		gap := jobs[b].Remaining - jobs[a].Remaining
		if h := gap / (dRate * env.Speed); h > 1e-12 && h < horizon {
			horizon = h
		}
	}
	if math.IsInf(horizon, 1) {
		return core.NoHorizon
	}
	return horizon
}

// Rates implements core.Policy: each ranking assigns its r-th job the r-th
// fastest machine (env.RankSpeed) before blending.
func (p *Hybrid) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	order := p.srptOrder(jobs)
	return p.blend(jobs, order, env, rates)
}
