// TimeStats property tests. TimeStats is accumulated by
// stats.TimelineObserver, which this external test package can import
// without an import cycle.
package core_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
)

// timeStats runs p on in and returns the result with its TimeStats.
func timeStats(t *testing.T, in *core.Instance, p core.Policy, opts core.Options) (*core.Result, core.TimeStats) {
	t.Helper()
	o := stats.NewTimelineObserver(opts.Machines)
	opts.Observer = o
	res, err := core.Run(in, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, o.Stats()
}

// randomTimeStatsInstance builds a deterministic random instance: releases
// with gaps in [0, 2), sizes in [0.1, 5.1).
func randomTimeStatsInstance(rng *rand.Rand, n int) *core.Instance {
	jobs := make([]core.Job, n)
	t := 0.0
	for i := range jobs {
		t += rng.Float64() * 2
		jobs[i] = core.Job{ID: i, Release: t, Size: 0.1 + rng.Float64()*5}
	}
	return core.NewInstance(jobs)
}

func near(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestTimeStatsSimple(t *testing.T) {
	// Two unit jobs back to back with a gap: [0,1] job 0, [5,6] job 1.
	in := core.NewInstance([]core.Job{{ID: 0, Release: 0, Size: 1}, {ID: 1, Release: 5, Size: 1}})
	_, ts := timeStats(t, in, policy.NewRR(), core.DefaultOptions())
	near(t, ts.Start, 0, 1e-12, "start")
	near(t, ts.End, 6, 1e-9, "end")
	near(t, ts.BusyTime, 2, 1e-9, "busy time")
	if ts.BusyPeriods != 2 {
		t.Fatalf("busy periods %d, want 2", ts.BusyPeriods)
	}
	near(t, ts.AvgAlive, 2.0/6.0, 1e-9, "avg alive")
	if ts.MaxAlive != 1 {
		t.Fatalf("max alive %d", ts.MaxAlive)
	}
	near(t, ts.Utilization, 2.0/6.0, 1e-9, "utilization")
	near(t, ts.OverloadedTime, 2, 1e-9, "overloaded (m=1: any alive)")
}

func TestTimeStatsEmpty(t *testing.T) {
	_, ts := timeStats(t, core.NewInstance(nil), policy.NewRR(), core.DefaultOptions())
	if ts.BusyPeriods != 0 || ts.AvgAlive != 0 {
		t.Fatalf("empty stats: %+v", ts)
	}
}

// TestLittlesLaw: L = λ·W with L the time-average alive count over the
// schedule horizon, λ = n/horizon and W the mean flow — an exact identity
// for any schedule when measured over the full horizon (∫ n_t dt = Σ F_j).
func TestLittlesLaw(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	for trial := 0; trial < 20; trial++ {
		in := randomTimeStatsInstance(rng, 5+rng.IntN(40))
		for _, p := range []core.Policy{policy.NewRR(), policy.NewFCFS()} {
			res, ts := timeStats(t, in, p, core.Options{Machines: 1 + rng.IntN(3), Speed: 1 + rng.Float64()})
			horizon := ts.End - ts.Start
			var sumFlow float64
			for _, f := range res.Flow {
				sumFlow += f
			}
			// ∫ n_t dt = Σ F_j exactly (up to idle-gap bookkeeping: jobs
			// are alive only within epochs).
			lhs := ts.AvgAlive * horizon
			if d := lhs - sumFlow; d > 1e-6*(1+sumFlow) || d < -1e-6*(1+sumFlow) {
				t.Fatalf("trial %d %s: ∫n_t dt = %v, ΣF = %v", trial, p.Name(), lhs, sumFlow)
			}
		}
	}
}

// TestUtilizationWorkConservation: total consumed machine-time × speed
// equals total work for any completing schedule.
func TestUtilizationWorkConservation(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 80))
	for trial := 0; trial < 15; trial++ {
		in := randomTimeStatsInstance(rng, 3+rng.IntN(30))
		m := 1 + rng.IntN(4)
		speed := 1 + 2*rng.Float64()
		_, ts := timeStats(t, in, policy.NewRR(), core.Options{Machines: m, Speed: speed})
		consumed := ts.Utilization * float64(m) * (ts.End - ts.Start) * speed
		if d := consumed - in.TotalWork(); d > 1e-6*(1+in.TotalWork()) || d < -1e-6*(1+in.TotalWork()) {
			t.Fatalf("trial %d: consumed %v, work %v", trial, consumed, in.TotalWork())
		}
	}
}
