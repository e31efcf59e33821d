package policy

import (
	"math"
	"slices"

	"rrnorm/internal/core"
)

// rankBuf is a reusable index buffer for rank-based policies (SRPT, SJF,
// FCFS, MLFQ, GITTINS, …) that assign the machines to the top-m jobs under
// some order.
type rankBuf struct {
	idx []int
}

// rank stably sorts job indices 0..n-1 by less (a strict weak order, ties
// broken by release then ID) into b.idx: the same permutation as
// sort.SliceStable, without its reflect swapper or escaping closures.
func (b *rankBuf) rank(n int, less func(a, b int) bool) {
	if cap(b.idx) < n {
		b.idx = make([]int, n)
	}
	b.idx = b.idx[:n]
	for i := range b.idx {
		b.idx[i] = i
	}
	//rrlint:ignore hotalloc less does not escape, so the compiler keeps this closure on the stack; TestEngineAllocBudget pins reference/SRPT at 0 allocs/run
	slices.SortStableFunc(b.idx, func(x, y int) int {
		if less(x, y) {
			return -1
		}
		if less(y, x) {
			return 1
		}
		return 0
	})
}

// topMEnv ranks jobs 0..n-1 by less and runs the i-th ranked job on the
// i-th fastest machine: rate env.RankSpeed(i) for the first min(m, n) of
// them — a full machine (rate 1) each on identical machines.
func (b *rankBuf) topMEnv(n int, env *core.MachineEnv, rates []float64, less func(a, b int) bool) {
	b.rank(n, less)
	for i := range min(env.M, n) {
		rates[b.idx[i]] = env.RankSpeed(i)
	}
}

// propFill distributes env's capacity proportionally to weights: waterfill
// over capacity min(m, n) with a one-machine cap per job on identical
// machines, propFillEnv on uniform ones.
func propFill(weights []float64, env *core.MachineEnv, rates []float64, buf *rankBuf) {
	if env.Identical() {
		waterfill(weights, math.Min(float64(env.M), float64(len(weights))), rates)
		return
	}
	propFillEnv(weights, env, rates, buf)
}

// propFillEnv is the heterogeneous-machine proportional share: rates are
// λ·w_i for the largest λ feasible on the speed profile — every
// sorted-descending weight prefix W_k must satisfy λ·W_k ≤ (speed of the k
// fastest machines), and the total λ·W_n ≤ Σ speeds. Unlike the identical
// path's waterfill it does not redistribute past a binding constraint (the
// caps here are chords of the speed profile, not per-job constants), but it
// degenerates exactly: with all weights equal the rate is RR's generalized
// fair share, and zero-weight jobs get nothing unless every weight is zero,
// in which case capacity splits equally.
func propFillEnv(weights []float64, env *core.MachineEnv, rates []float64, buf *rankBuf) {
	n := len(weights)
	if n == 0 {
		return
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		share := env.FairShare(n)
		for i := range rates {
			rates[i] = share
		}
		return
	}
	//rrlint:ignore hotalloc rank's less does not escape, so the compiler keeps this closure on the stack
	buf.rank(n, func(a, b int) bool { return weights[a] > weights[b] })
	λ := math.Inf(1)
	wsum := 0.0
	k := min(env.M, n)
	for i := 0; i < k; i++ {
		wsum += weights[buf.idx[i]]
		if wsum <= 0 {
			continue
		}
		if l := env.PrefixSpeed(i+1) / wsum; l < λ {
			λ = l
		}
	}
	if n > env.M {
		if l := env.TotalSpeed() / total; l < λ {
			λ = l
		}
	}
	for i, w := range weights {
		if w <= 0 {
			rates[i] = 0
			continue
		}
		rates[i] = λ * w
	}
}

// waterfill distributes capacity M among jobs proportionally to weights,
// capping each job's rate at 1: it finds λ ≥ 0 with Σ_i min(1, λ·w_i) = M
// (or assigns everyone rate 1 when M ≥ n) and writes the rates. Zero-weight
// jobs receive rate 0 unless all weights are zero, in which case capacity is
// split equally. weights and rates must have equal length.
func waterfill(weights []float64, M float64, rates []float64) {
	n := len(weights)
	if M >= float64(n) {
		for i := range rates {
			rates[i] = 1
		}
		return
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		share := M / float64(n)
		for i := range rates {
			rates[i] = share
		}
		return
	}
	// Iteratively fix jobs that hit the cap. At most n rounds; in practice
	// a couple.
	capped := make([]bool, n)
	remM, remW := M, total
	for {
		if remW <= 0 {
			break
		}
		λ := remM / remW
		changed := false
		for i, w := range weights {
			if capped[i] || w <= 0 {
				continue
			}
			if λ*w >= 1 {
				capped[i] = true
				rates[i] = 1
				remM -= 1
				remW -= w
				changed = true
			}
		}
		if !changed {
			for i, w := range weights {
				if !capped[i] {
					rates[i] = λ * w
				}
			}
			return
		}
		if remM <= 0 {
			for i := range weights {
				if !capped[i] {
					rates[i] = 0
				}
			}
			return
		}
	}
}
