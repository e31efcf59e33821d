package policy

import "rrnorm/internal/core"

// SRPT is Shortest Remaining Processing Time: the m alive jobs with the
// least remaining work each receive a full machine. It is clairvoyant,
// optimal for total (ℓ1) flow time on a single machine, and scalable
// ((1+ε)-speed O(1)-competitive) for ℓk-norms on identical machines
// (Bansal–Pruhs; Fox–Moseley — the paper's Related Work). Ties are broken
// by earlier release, then smaller ID, for determinism.
type SRPT struct{ buf rankBuf }

// NewSRPT returns a new SRPT policy.
func NewSRPT() *SRPT { return &SRPT{} }

// Name implements core.Policy.
func (*SRPT) Name() string { return "SRPT" }

// Clairvoyant implements core.Policy.
func (*SRPT) Clairvoyant() bool { return true }

// srptLess orders by remaining work, breaking ties by release then ID.
func srptLess(jobs []core.JobView) func(a, b int) bool {
	return func(a, b int) bool {
		if jobs[a].Remaining != jobs[b].Remaining {
			return jobs[a].Remaining < jobs[b].Remaining
		}
		if jobs[a].Release != jobs[b].Release {
			return jobs[a].Release < jobs[b].Release
		}
		return jobs[a].ID < jobs[b].ID
	}
}

// Rates implements core.Policy: the k-th shortest job runs on the k-th
// fastest machine.
func (p *SRPT) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	p.buf.topMEnv(len(jobs), env, rates, srptLess(jobs))
	return core.NoHorizon
}

// SJF is (preemptive) Shortest Job First: the m alive jobs with the least
// original size each receive a full machine. Clairvoyant; one of the
// policies shown O(1)-speed O(1)-competitive for ℓ2-norm flow by
// Bansal–Pruhs, cited throughout the paper.
type SJF struct{ buf rankBuf }

// NewSJF returns a new SJF policy.
func NewSJF() *SJF { return &SJF{} }

// Name implements core.Policy.
func (*SJF) Name() string { return "SJF" }

// Clairvoyant implements core.Policy.
func (*SJF) Clairvoyant() bool { return true }

// sjfLess orders by original size, breaking ties by release then ID.
func sjfLess(jobs []core.JobView) func(a, b int) bool {
	return func(a, b int) bool {
		if jobs[a].Size != jobs[b].Size {
			return jobs[a].Size < jobs[b].Size
		}
		if jobs[a].Release != jobs[b].Release {
			return jobs[a].Release < jobs[b].Release
		}
		return jobs[a].ID < jobs[b].ID
	}
}

// Rates implements core.Policy.
func (p *SJF) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	p.buf.topMEnv(len(jobs), env, rates, sjfLess(jobs))
	return core.NoHorizon
}

// FCFS is First Come First Served: the m earliest-released alive jobs each
// receive a full machine. Non-clairvoyant and non-preemptive in effect on a
// single machine; included as the classic no-fairness-no-preemption
// baseline.
type FCFS struct{ buf rankBuf }

// NewFCFS returns a new FCFS policy.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements core.Policy.
func (*FCFS) Name() string { return "FCFS" }

// Clairvoyant implements core.Policy.
func (*FCFS) Clairvoyant() bool { return false }

// fcfsLess orders by release then ID.
func fcfsLess(jobs []core.JobView) func(a, b int) bool {
	return func(a, b int) bool {
		if jobs[a].Release != jobs[b].Release {
			return jobs[a].Release < jobs[b].Release
		}
		return jobs[a].ID < jobs[b].ID
	}
}

// Rates implements core.Policy: the k-th oldest job runs on the k-th
// fastest machine.
func (p *FCFS) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	// jobs arrive ordered by (Release, ID) already; keep the explicit
	// comparator for robustness against future engine changes.
	p.buf.topMEnv(len(jobs), env, rates, fcfsLess(jobs))
	return core.NoHorizon
}
