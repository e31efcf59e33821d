package policy

import (
	"math/rand/v2"
	"testing"

	"rrnorm/internal/core"
)

// randomViews builds n job views in (Release, ID) order with distinct
// Remaining values (so SRPT tie-breaks cannot differ between policies).
func randomViews(rng *rand.Rand, n int, now float64) []core.JobView {
	jobs := make([]core.JobView, n)
	rel := 0.0
	for i := range jobs {
		rel += rng.Float64()
		age := now - rel
		if age < 0 {
			age = 0
		}
		jobs[i] = core.JobView{
			ID: i, Release: rel, Age: age, Elapsed: rng.Float64() * age,
			Size:      1 + rng.Float64()*10,
			Remaining: float64(i+1)*0.1 + rng.Float64()*0.05,
		}
	}
	return jobs
}

// TestHybridEndpoints pins the convex-combination contract: Theta = 0 is
// rate-for-rate SRPT and Theta = 1 is rate-for-rate FCFS, on the identical
// path and on a heterogeneous machine env alike.
func TestHybridEndpoints(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(10)
		m := 1 + rng.IntN(3)
		now := 5 + rng.Float64()*10
		jobs := randomViews(rng, n, now)

		envs := []*core.MachineEnv{identical(m), uniform([]float64{4, 2, 1}[:m]...)}

		cases := []struct {
			theta float64
			ref   core.Policy
		}{
			{0, NewSRPT()},
			{1, NewFCFS()},
		}
		for _, tc := range cases {
			for _, env := range envs {
				h := NewHybrid(tc.theta, 0)
				got := make([]float64, n)
				want := make([]float64, n)
				h.Rates(now, jobs, env, got)
				tc.ref.Rates(now, jobs, env, want)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d θ=%g speeds=%v: rate[%d] = %v, %s gives %v",
							trial, tc.theta, env.SortedSpeeds(), i, got[i], tc.ref.Name(), want[i])
					}
				}
			}
		}
	}
}

// TestHybridStarvationPromotion: under pure SRPT weighting (Theta = 0) a
// huge job is starved behind a stream of short ones, but once its age
// reaches Starve it is promoted to the front of the ranking and captures
// the machine.
func TestHybridStarvationPromotion(t *testing.T) {
	now := 10.0
	jobs := []core.JobView{
		{ID: 0, Release: 0, Age: 10, Remaining: 100, Size: 100},
		{ID: 1, Release: 9, Age: 1, Remaining: 0.5, Size: 0.5},
	}
	rates := make([]float64, 2)

	starving := NewHybrid(0, 0) // no mitigation: SRPT starves the big job
	starving.Rates(now, jobs, identical(1), rates)
	if rates[0] != 0 || rates[1] != 1 {
		t.Fatalf("θ=0 without mitigation: rates %v, want [0 1]", rates)
	}

	mitigated := NewHybrid(0, 8) // the big job's age 10 ≥ 8: promoted
	mitigated.Rates(now, jobs, identical(1), rates)
	if rates[0] != 1 || rates[1] != 0 {
		t.Fatalf("θ=0 with Starve=8: rates %v, want [1 0]", rates)
	}

	// Before the threshold the promotion horizon is the time left to reach
	// it, so the engine re-plans exactly at the promotion instant.
	early := NewHybrid(0, 12)
	if h := early.Rates(now, jobs, identical(1), rates); h != 2 {
		t.Fatalf("promotion horizon: got %v, want 2 (age 10 → threshold 12)", h)
	}
}

// TestHybridClairvoyant is the flip side of the non-clairvoyance property
// test: HYBRID declares clairvoyance and its rates really do read Remaining.
func TestHybridClairvoyant(t *testing.T) {
	h := NewHybrid(0, 0)
	if !h.Clairvoyant() {
		t.Fatal("HYBRID must declare Clairvoyant() — its SRPT half reads Remaining")
	}
	now := 5.0
	jobs := []core.JobView{
		{ID: 0, Release: 0, Age: 5, Remaining: 1, Size: 3},
		{ID: 1, Release: 1, Age: 4, Remaining: 2, Size: 2},
	}
	r1 := make([]float64, 2)
	h.Rates(now, jobs, identical(1), r1)
	jobs[0].Remaining, jobs[1].Remaining = jobs[1].Remaining, jobs[0].Remaining
	r2 := make([]float64, 2)
	h.Rates(now, jobs, identical(1), r2)
	if r1[0] == r2[0] && r1[1] == r2[1] {
		t.Fatalf("swapping Remaining left rates unchanged (%v): HYBRID is not reading sizes", r1)
	}
}
