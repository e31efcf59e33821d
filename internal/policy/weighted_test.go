package policy

import (
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/metrics"
)

func TestPropShareEqualsRRUnweighted(t *testing.T) {
	jobs := []core.JobView{{ID: 0, Weight: 1}, {ID: 1, Weight: 1}, {ID: 2, Weight: 1}}
	a := make([]float64, 3)
	b := make([]float64, 3)
	NewPropShare().Rates(0, jobs, identical(2), a)
	NewRR().Rates(0, jobs, identical(2), b)
	for i := range a {
		approx(t, a[i], b[i], 1e-12, "PROP(w=1) == RR")
	}
}

func TestPropShareProportional(t *testing.T) {
	jobs := []core.JobView{{ID: 0, Weight: 3}, {ID: 1, Weight: 1}}
	rates := make([]float64, 2)
	NewPropShare().Rates(0, jobs, identical(1), rates)
	approx(t, rates[0], 0.75, 1e-12, "heavy job share")
	approx(t, rates[1], 0.25, 1e-12, "light job share")
}

func TestPropShareZeroWeightDefaultsToOne(t *testing.T) {
	jobs := []core.JobView{{ID: 0}, {ID: 1, Weight: 1}}
	rates := make([]float64, 2)
	NewPropShare().Rates(0, jobs, identical(1), rates)
	approx(t, rates[0], 0.5, 1e-12, "unset weight acts as 1")
	approx(t, rates[1], 0.5, 1e-12, "unset weight acts as 1")
}

func TestWSRPTPrefersDense(t *testing.T) {
	// Job 0: remaining 4, weight 4 (ratio 1); job 1: remaining 2, weight 1
	// (ratio 2). WSRPT runs job 0 despite its larger remaining work.
	jobs := []core.JobView{
		{ID: 0, Remaining: 4, Weight: 4},
		{ID: 1, Remaining: 2, Weight: 1},
	}
	rates := make([]float64, 2)
	NewWSRPT().Rates(0, jobs, identical(1), rates)
	approx(t, rates[0], 1, 1e-12, "dense job runs")
	approx(t, rates[1], 0, 1e-12, "sparse job waits")
}

func TestWSRPTUnweightedEqualsSRPT(t *testing.T) {
	in := core.NewInstance([]core.Job{
		{ID: 0, Release: 0, Size: 10},
		{ID: 1, Release: 1, Size: 1},
		{ID: 2, Release: 2, Size: 3},
	})
	a := run(t, in, NewWSRPT(), 1, 1)
	b := run(t, in, NewSRPT(), 1, 1)
	for i := range a.Completion {
		approx(t, a.Completion[i], b.Completion[i], 1e-9, "WSRPT(w=1) == SRPT")
	}
}

func TestWSJFPrefersDensity(t *testing.T) {
	jobs := []core.JobView{
		{ID: 0, Size: 10, Weight: 100}, // density 0.1
		{ID: 1, Size: 1, Weight: 1},    // density 1
	}
	rates := make([]float64, 2)
	NewWSJF().Rates(0, jobs, identical(1), rates)
	approx(t, rates[0], 1, 1e-12, "heavy big job first")
	approx(t, rates[1], 0, 1e-12, "light small job waits")
}

// TestWeightedPoliciesImproveWeightedObjective: on an instance with one
// very important job among unit-weight jobs, weighted policies beat their
// unweighted counterparts on Σ w F².
func TestWeightedPoliciesImproveWeightedObjective(t *testing.T) {
	jobs := []core.Job{{ID: 0, Release: 0, Size: 5, Weight: 50}}
	for i := 1; i <= 10; i++ {
		jobs = append(jobs, core.Job{ID: i, Release: float64(i) * 0.3, Size: 1, Weight: 1})
	}
	in := core.NewInstance(jobs)
	weights := make([]float64, in.N())
	for i, j := range in.Jobs {
		weights[i] = j.W()
	}
	obj := func(p core.Policy) float64 {
		res := run(t, in, p, 1, 1)
		return metrics.WeightedKthPowerSum(res.Flow, weights, 2)
	}
	if w, u := obj(NewWSRPT()), obj(NewSRPT()); w >= u {
		t.Errorf("WSRPT %v should beat SRPT %v on weighted objective", w, u)
	}
	if w, u := obj(NewPropShare()), obj(NewRR()); w >= u {
		t.Errorf("PROP %v should beat RR %v on weighted objective", w, u)
	}
}
