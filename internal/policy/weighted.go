package policy

import "rrnorm/internal/core"

// WSRPT is weighted SRPT: the m alive jobs with the smallest
// remaining-work-to-weight ratio each get a full machine — the natural
// clairvoyant heuristic for weighted flow objectives (the setting of the
// Anand–Garg–Kumar dual-fitting work the paper builds on).
type WSRPT struct{ buf rankBuf }

// NewWSRPT returns a weighted SRPT policy.
func NewWSRPT() *WSRPT { return &WSRPT{} }

// Name implements core.Policy.
func (*WSRPT) Name() string { return "WSRPT" }

// Clairvoyant implements core.Policy.
func (*WSRPT) Clairvoyant() bool { return true }

// wsrptLess orders by remaining-work-to-weight ratio, then release, then ID.
func wsrptLess(jobs []core.JobView) func(a, b int) bool {
	return func(a, b int) bool {
		da := jobs[a].Remaining / weightOf(jobs[a])
		db := jobs[b].Remaining / weightOf(jobs[b])
		if da != db {
			return da < db
		}
		if jobs[a].Release != jobs[b].Release {
			return jobs[a].Release < jobs[b].Release
		}
		return jobs[a].ID < jobs[b].ID
	}
}

// Rates implements core.Policy.
func (p *WSRPT) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	p.buf.topMEnv(len(jobs), env, rates, wsrptLess(jobs))
	return core.NoHorizon
}

// WSJF is weighted SJF (highest-density first): the m alive jobs with the
// smallest size-to-weight ratio each get a full machine.
type WSJF struct{ buf rankBuf }

// NewWSJF returns a weighted SJF policy.
func NewWSJF() *WSJF { return &WSJF{} }

// Name implements core.Policy.
func (*WSJF) Name() string { return "WSJF" }

// Clairvoyant implements core.Policy.
func (*WSJF) Clairvoyant() bool { return true }

// wsjfLess orders by size-to-weight ratio, then release, then ID.
func wsjfLess(jobs []core.JobView) func(a, b int) bool {
	return func(a, b int) bool {
		da := jobs[a].Size / weightOf(jobs[a])
		db := jobs[b].Size / weightOf(jobs[b])
		if da != db {
			return da < db
		}
		if jobs[a].Release != jobs[b].Release {
			return jobs[a].Release < jobs[b].Release
		}
		return jobs[a].ID < jobs[b].ID
	}
}

// Rates implements core.Policy.
func (p *WSJF) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	p.buf.topMEnv(len(jobs), env, rates, wsjfLess(jobs))
	return core.NoHorizon
}

// PropShare is weight-proportional sharing — Round Robin generalized to
// static weights (each alive job gets machine share ∝ w_j, capped at one
// machine). With unit weights it coincides with RR; it is the
// non-clairvoyant fair-share policy of stride/lottery schedulers. Weights
// are static, so rates change only at arrivals/completions.
type PropShare struct {
	weights []float64
	buf     rankBuf
}

// NewPropShare returns a weight-proportional-sharing policy.
func NewPropShare() *PropShare { return &PropShare{} }

// Name implements core.Policy.
func (*PropShare) Name() string { return "PROP" }

// Clairvoyant implements core.Policy.
func (*PropShare) Clairvoyant() bool { return false }

// Rates implements core.Policy: on identical machines shares water-fill
// capacity min(m, n) proportionally to weight, capped at one machine each
// (waterfill); on uniform machines rates are the largest uniform
// proportional scaling feasible on the speed profile (propFillEnv).
func (p *PropShare) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	n := len(jobs)
	if cap(p.weights) < n {
		p.weights = make([]float64, n)
	}
	p.weights = p.weights[:n]
	for i, j := range jobs {
		p.weights[i] = weightOf(j)
	}
	propFill(p.weights, env, rates, &p.buf)
	return core.NoHorizon
}

// weightOf returns the view's effective weight, defaulting to 1 — robust
// against callers constructing JobViews directly with zero weights.
func weightOf(j core.JobView) float64 {
	if j.Weight == 0 {
		return 1
	}
	return j.Weight
}
