package policy

import (
	"math"

	"rrnorm/internal/core"
)

// Gittins implements the Gittins-index policy for known service-time
// distributions: a job with attained service a has rank
//
//	G(a) = sup_{Δ>0} P(S ≤ a+Δ | S > a) / E[min(S, a+Δ) − a | S > a]
//	     = sup_{Δ>0} (F(a+Δ) − F(a)) / ∫_a^{a+Δ} (1 − F(x)) dx,
//
// and the m alive jobs with the HIGHEST ranks run. Gittins is the optimal
// non-clairvoyant policy for mean flow time in the M/G/1 queue when the
// size distribution (but not individual sizes) is known — the
// distribution-aware midpoint between the paper's fully oblivious RR and
// the clairvoyant SRPT. For exponential sizes the rank is constant (all
// non-clairvoyant policies tie); for heavy tails it decreases with attained
// service (SETF-like); for increasing-hazard distributions it increases
// (FCFS-like).
//
// Ranks are precomputed on an attained-service grid from the CDF; the sup
// over Δ is taken over grid suffixes.
type Gittins struct {
	step  float64
	ranks []float64
	buf   rankBuf
}

// NewGittins builds the policy from a CDF on [0, sup] (F(sup) ≈ 1) using
// the given grid resolution (≤ 0 → 1000 points).
func NewGittins(cdf func(float64) float64, sup float64, gridN int) *Gittins {
	if gridN <= 0 {
		gridN = 1000
	}
	if !(sup > 0) {
		sup = 1
	}
	step := sup / float64(gridN)
	// F and the prefix integral I(x) = ∫_0^x (1−F) dx on the grid.
	F := make([]float64, gridN+1)
	I := make([]float64, gridN+1)
	for i := 0; i <= gridN; i++ {
		F[i] = cdf(float64(i) * step)
		if F[i] < 0 {
			F[i] = 0
		}
		if F[i] > 1 {
			F[i] = 1
		}
		if i > 0 {
			I[i] = I[i-1] + step/2*((1-F[i-1])+(1-F[i]))
		}
	}
	ranks := make([]float64, gridN+1)
	for i := 0; i <= gridN; i++ {
		best := 0.0
		for j := i + 1; j <= gridN; j++ {
			den := I[j] - I[i]
			if den <= 1e-15 {
				// Tail fully absorbed: completion is immediate.
				best = math.Inf(1)
				break
			}
			if g := (F[j] - F[i]) / den; g > best {
				best = g
			}
		}
		ranks[i] = best
	}
	// Beyond the support a job is (numerically) overdue: give it the last
	// finite rank so it still gets served.
	last := ranks[gridN]
	if math.IsInf(last, 1) || last == 0 {
		for i := gridN; i >= 0; i-- {
			if !math.IsInf(ranks[i], 1) && ranks[i] > 0 {
				last = ranks[i]
				break
			}
		}
		ranks[gridN] = last
	}
	return &Gittins{step: step, ranks: ranks}
}

// Rank returns the Gittins index at attained service a (grid lookup with
// linear interpolation).
func (g *Gittins) Rank(a float64) float64 {
	pos := a / g.step
	i := int(pos)
	if i >= len(g.ranks)-1 {
		return g.ranks[len(g.ranks)-1]
	}
	if i < 0 {
		i = 0
	}
	frac := pos - float64(i)
	r0, r1 := g.ranks[i], g.ranks[i+1]
	if math.IsInf(r0, 1) || math.IsInf(r1, 1) {
		return math.Max(r0, r1)
	}
	return r0*(1-frac) + r1*frac
}

// Name implements core.Policy.
func (*Gittins) Name() string { return "GITTINS" }

// Clairvoyant implements core.Policy: Gittins knows the distribution but
// not individual sizes, so it is non-clairvoyant in the paper's sense.
func (*Gittins) Clairvoyant() bool { return false }

// Rates implements core.Policy: the job with the i-th highest Gittins
// index runs on the i-th fastest machine.
func (g *Gittins) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	n := len(jobs)
	rank := make([]float64, n)
	for i, j := range jobs {
		rank[i] = g.Rank(j.Elapsed)
	}
	g.buf.topMEnv(n, env, rates, func(a, b int) bool {
		if rank[a] != rank[b] {
			return rank[a] > rank[b] // highest index first
		}
		if jobs[a].Release != jobs[b].Release {
			return jobs[a].Release < jobs[b].Release
		}
		return jobs[a].ID < jobs[b].ID
	})
	// Ranks drift with attained service; re-plan on a coarse horizon
	// proportional to the grid step, scaled to the fastest machine, so
	// crossings are caught promptly.
	return 4 * g.step / math.Max(env.MaxSpeed()*env.Speed, 1e-9)
}

// MonotoneKind classifies the rank curve: -1 decreasing (SETF-like),
// +1 increasing (FCFS-like), 0 mixed/flat — used by tests and diagnostics.
func (g *Gittins) MonotoneKind() int {
	inc, dec := false, false
	vals := g.ranks
	// Ignore the tail point which may be patched.
	for i := 1; i < len(vals)-1; i++ {
		a, b := vals[i-1], vals[i]
		if math.IsInf(a, 1) || math.IsInf(b, 1) {
			continue
		}
		if b > a*(1+1e-9) {
			inc = true
		}
		if b < a*(1-1e-9) {
			dec = true
		}
	}
	switch {
	case inc && !dec:
		return 1
	case dec && !inc:
		return -1
	default:
		return 0
	}
}
