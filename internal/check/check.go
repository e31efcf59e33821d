// Package check is the differential-testing oracle harness for the two
// simulation engines: the step-based reference engine (core.Run) and the
// event-driven fast engine (fast.Run). It compares per-job completion
// times, flows and ℓk-norms of flow between the two and reports every
// disagreement beyond tolerance.
//
// The harness is deliberately engine-shaped rather than test-shaped so the
// same code backs three consumers: the bulk differential tests and the
// go-native fuzz target in this package, and ad-hoc debugging (Report's
// Diffs say exactly which job diverged first and by how much).
package check

import (
	"fmt"
	"math"
	"math/rand/v2"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
)

// Tolerances bounds the acceptable engine disagreement. Both fields are
// relative-ish: a pair (a, b) agrees when |a−b| ≤ tol·(1 + max(|a|, |b|)),
// so the bound reads as absolute near zero and relative for large values.
type Tolerances struct {
	// Completion bounds per-job completion-time (and flow) discrepancies.
	Completion float64
	// Norm bounds ℓk-norm-of-flow discrepancies for k = 1, 2, 3 and ∞.
	Norm float64
}

// DefaultTolerances matches the acceptance bar for the fast engine: the
// engines' completion-tolerance semantics bound per-job discrepancies by
// CompletionTol/rate, far below 1e-6 for well-scaled instances.
func DefaultTolerances() Tolerances {
	return Tolerances{Completion: 1e-6, Norm: 1e-6}
}

// Diff is a single quantity on which the engines disagreed.
type Diff struct {
	Quantity string  // "completion", "flow" or "L<k>" / "Linf"
	Job      int     // normalized job index, or -1 for aggregate quantities
	Ref      float64 // reference-engine value
	Fast     float64 // fast-engine value
}

func (d Diff) String() string {
	if d.Job >= 0 {
		return fmt.Sprintf("%s[job %d]: ref=%.17g fast=%.17g (Δ=%g)", d.Quantity, d.Job, d.Ref, d.Fast, d.Fast-d.Ref)
	}
	return fmt.Sprintf("%s: ref=%.17g fast=%.17g (Δ=%g)", d.Quantity, d.Ref, d.Fast, d.Fast-d.Ref)
}

// Report is the outcome of one differential comparison.
type Report struct {
	Policy string
	Diffs  []Diff // empty means the engines agree within tolerance
	// MaxCompletionDiff is the largest per-job |ref−fast| completion gap,
	// recorded even when within tolerance (useful for measuring headroom).
	MaxCompletionDiff float64
}

// OK reports whether the engines agreed within tolerance.
func (r *Report) OK() bool { return len(r.Diffs) == 0 }

func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("%s: engines agree (max completion diff %.3g)", r.Policy, r.MaxCompletionDiff)
	}
	s := fmt.Sprintf("%s: %d disagreements (max completion diff %.3g)", r.Policy, len(r.Diffs), r.MaxCompletionDiff)
	for i, d := range r.Diffs {
		if i == 8 {
			s += fmt.Sprintf("\n  ... and %d more", len(r.Diffs)-8)
			break
		}
		s += "\n  " + d.String()
	}
	return s
}

func agree(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// Compare runs the instance under both engines and diffs the results.
// opts.Engine is overridden (reference vs. fast) for the two runs; the fast
// run demands EngineFast, so comparing an ineligible policy/options
// combination is an error rather than a silent self-comparison.
func Compare(in *core.Instance, p core.Policy, opts core.Options, tol Tolerances) (*Report, error) {
	ro, fo := opts, opts
	ro.Engine = core.EngineReference
	fo.Engine = core.EngineFast
	ref, err := core.Run(in, p, ro)
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	fst, err := fast.Run(in, p, fo)
	if err != nil {
		return nil, fmt.Errorf("fast engine: %w", err)
	}
	return diff(p.Name(), ref, fst, tol), nil
}

// diff compares two results job-by-job and on aggregate flow norms. The
// results must come from the same instance (both engines normalize to the
// same (Release, ID) job order).
func diff(name string, ref, fst *core.Result, tol Tolerances) *Report {
	rep := &Report{Policy: name}
	if len(ref.Completion) != len(fst.Completion) {
		rep.Diffs = append(rep.Diffs, Diff{Quantity: "len(completion)", Job: -1,
			Ref: float64(len(ref.Completion)), Fast: float64(len(fst.Completion))})
		return rep
	}
	for i := range ref.Completion {
		if d := math.Abs(ref.Completion[i] - fst.Completion[i]); d > rep.MaxCompletionDiff {
			rep.MaxCompletionDiff = d
		}
		if !agree(ref.Completion[i], fst.Completion[i], tol.Completion) {
			rep.Diffs = append(rep.Diffs, Diff{Quantity: "completion", Job: i, Ref: ref.Completion[i], Fast: fst.Completion[i]})
		}
		if !agree(ref.Flow[i], fst.Flow[i], tol.Completion) {
			rep.Diffs = append(rep.Diffs, Diff{Quantity: "flow", Job: i, Ref: ref.Flow[i], Fast: fst.Flow[i]})
		}
	}
	for _, k := range []int{1, 2, 3} {
		a, b := metrics.LkNorm(ref.Flow, k), metrics.LkNorm(fst.Flow, k)
		if !agree(a, b, tol.Norm) {
			rep.Diffs = append(rep.Diffs, Diff{Quantity: fmt.Sprintf("L%d", k), Job: -1, Ref: a, Fast: b})
		}
	}
	if a, b := ref.MaxFlow(), fst.MaxFlow(); !agree(a, b, tol.Norm) {
		rep.Diffs = append(rep.Diffs, Diff{Quantity: "Linf", Job: -1, Ref: a, Fast: b})
	}
	return rep
}

// RandomInstance deterministically generates a test instance from a seed.
// Instances deliberately stress engine edge cases: empty and single-job
// instances, simultaneous releases (exact ties), zero-size and sub-tolerance
// jobs, heavy-tailed sizes, and bursts that overload the machines.
func RandomInstance(seed uint64) *core.Instance {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	n := rng.IntN(61) // 0..60 jobs
	jobs := make([]core.Job, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		// ~1/4 of jobs share the previous job's release time exactly.
		if i == 0 || rng.IntN(4) != 0 {
			switch rng.IntN(3) {
			case 0: // dense arrivals
				t += rng.Float64() * 0.2
			case 1: // moderate gap
				t += rng.Float64()
			default: // burst boundary / idle gap
				t += rng.Float64() * 5
			}
		}
		var size float64
		switch rng.IntN(10) {
		case 0: // zero-size job
			size = 0
		case 1: // sub-tolerance job (completes at admission in both engines)
			size = 1e-16
		case 2, 3: // heavy-tailed
			size = math.Exp(rng.NormFloat64() * 2)
		default:
			size = 0.05 + rng.Float64()*3
		}
		jobs = append(jobs, core.Job{ID: i, Release: t, Size: size})
	}
	// Shuffle so NewInstance's normalization (and its ID tie-break) is
	// exercised, not assumed.
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return core.NewInstance(jobs)
}

// RandomOptions deterministically generates engine options from a seed:
// m ∈ [1, 4] machines and speeds from slightly-slow to fast, including the
// exact s = 1.
func RandomOptions(seed uint64) core.Options {
	rng := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	speeds := []float64{1, 1, 1.5, 2, 2 + 1e-9, 0.75, 1.0 / 3.0}
	return core.Options{
		Machines: 1 + rng.IntN(4),
		Speed:    speeds[rng.IntN(len(speeds))],
	}
}

// RandomMachineModel deterministically generates a heterogeneous machine
// model for m machines from a seed: speeds drawn from a small palette
// (including exact 1s, so the explicit-all-ones plumbing path is exercised
// too) and an occasional preemption cost. The rank-based policies have no
// fast path under a preemption cost, so the heterogeneous walls run them
// with it zeroed.
func RandomMachineModel(seed uint64, m int) core.Machines {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	palette := []float64{0.25, 0.5, 1, 1, 1.5, 2, 4}
	speeds := make([]float64, m)
	for i := range speeds {
		speeds[i] = palette[rng.IntN(len(palette))]
	}
	mm := core.Machines{Speeds: speeds}
	if rng.IntN(3) == 0 {
		mm.PreemptCost = []float64{0.1, 0.5, 2}[rng.IntN(3)]
	}
	return mm
}

// Policies returns the fast-path policies, with StaticPriority's priority
// table derived deterministically from the seed (so fuzzing explores
// priority ties and inversions too).
func Policies(seed uint64) []core.Policy {
	rng := rand.New(rand.NewPCG(seed, 0xda942042e4dd58b5))
	prio := make(map[int]float64)
	for id := 0; id < 64; id++ {
		prio[id] = float64(rng.IntN(8)) // coarse ⇒ frequent priority ties
	}
	return []core.Policy{
		policy.NewRR(),
		policy.NewSRPT(),
		policy.NewSJF(),
		policy.NewFCFS(),
		policy.NewStaticPriority(prio),
	}
}
