package policy

import (
	"math"

	"rrnorm/internal/core"
)

// MLFQ is a multi-level feedback queue with geometrically growing quanta:
// level q holds jobs whose elapsed processing lies in
// [q0·(2^q − 1), q0·(2^{q+1} − 1)); lower levels have priority and levels
// are served FCFS, with the top m jobs each getting a full machine. MLFQ is
// the classic practical approximation of SETF used by operating systems —
// included because the paper's motivation (Silberschatz et al.) is exactly
// the OS scheduling setting.
type MLFQ struct {
	// BaseQuantum is q0 > 0, the level-0 quantum.
	BaseQuantum float64

	buf rankBuf
}

// NewMLFQ returns an MLFQ with the given base quantum.
func NewMLFQ(baseQuantum float64) *MLFQ {
	if baseQuantum <= 0 {
		baseQuantum = 1
	}
	return &MLFQ{BaseQuantum: baseQuantum}
}

// Name implements core.Policy.
func (*MLFQ) Name() string { return "MLFQ" }

// Clairvoyant implements core.Policy.
func (*MLFQ) Clairvoyant() bool { return false }

// level returns the queue level for a given elapsed time.
func (p *MLFQ) level(elapsed float64) int {
	// level q iff elapsed ∈ [q0(2^q − 1), q0(2^{q+1} − 1)).
	return int(math.Floor(math.Log2(elapsed/p.BaseQuantum + 1)))
}

// levelEnd returns the elapsed threshold at which a job leaves level q.
func (p *MLFQ) levelEnd(q int) float64 {
	return p.BaseQuantum * (math.Pow(2, float64(q+1)) - 1)
}

// Rates implements core.Policy: lower levels have strict priority, with the
// k-th ranked job on the k-th fastest machine; the demotion horizon
// accounts for each job's machine-dependent work rate.
func (p *MLFQ) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	n := len(jobs)
	levels := make([]int, n)
	for i, j := range jobs {
		levels[i] = p.level(j.Elapsed)
	}
	p.buf.topMEnv(n, env, rates, func(a, b int) bool {
		if levels[a] != levels[b] {
			return levels[a] < levels[b]
		}
		if jobs[a].Release != jobs[b].Release {
			return jobs[a].Release < jobs[b].Release
		}
		return jobs[a].ID < jobs[b].ID
	})
	// Horizon: the first moment a running job crosses its level threshold
	// and gets demoted.
	horizon := math.Inf(1)
	for i := range jobs {
		if rates[i] <= 0 {
			continue
		}
		gap := p.levelEnd(levels[i]) - jobs[i].Elapsed
		if gap <= 1e-12 {
			continue
		}
		if h := gap / (rates[i] * env.Speed); h < horizon {
			horizon = h
		}
	}
	if math.IsInf(horizon, 1) {
		return core.NoHorizon
	}
	return horizon
}
