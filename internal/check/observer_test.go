package check

import (
	"math"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/stats"
)

// TestObserversAgreeWithSegments is the streaming-pipeline differential
// test: over the same 1200-seed corpus as TestEnginesAgreeBulk, the
// observer-derived quantities — ℓk norms of flow (StreamNorm), overloaded
// time |T_o| and busy-period count (TimelineObserver) — must agree at 1e-6
// with the reference engine's ground truth (ℓk norms of its flows, and a
// TimelineObserver fed its per-job epochs), on both engines. The fast leg
// is a cross-engine check of the aggregate epochs the fast paths emit.
func TestObserversAgreeWithSegments(t *testing.T) {
	const seeds = 1200
	const tol = 1e-6
	ks := []int{1, 2, 3}
	agreeAt := func(a, b float64) bool {
		return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
	}
	comparisons := 0
	for seed := uint64(0); seed < seeds; seed++ {
		in := RandomInstance(seed)
		opts := RandomOptions(seed)
		pols := Policies(seed)
		p := pols[int(seed)%len(pols)] // one policy per seed bounds the cost

		// Reference-engine ground truth.
		refTL := stats.NewTimelineObserver(opts.Machines)
		ro := opts
		ro.Engine = core.EngineReference
		ro.Observer = refTL
		ref, err := core.Run(in, p, ro)
		if err != nil {
			t.Fatalf("seed %d: reference run: %v", seed, err)
		}
		wantNorm := make([]float64, len(ks))
		for i, k := range ks {
			wantNorm[i] = metrics.LkNorm(ref.Flow, k)
		}
		wantTS := refTL.Stats()

		for _, eng := range []core.EngineKind{core.EngineReference, core.EngineFast} {
			sn := metrics.NewStreamNorm(ks...)
			tl := stats.NewTimelineObserver(opts.Machines)
			oo := opts
			oo.Engine = eng
			oo.Observer = core.Multi(sn, tl)
			if _, err := fast.Run(in, p, oo); err != nil {
				t.Fatalf("seed %d %v: observed run: %v", seed, eng, err)
			}
			for i, k := range ks {
				if got := sn.Norm(k); !agreeAt(got, wantNorm[i]) {
					t.Fatalf("seed %d %s %v: L%d stream %.17g vs reference %.17g",
						seed, p.Name(), eng, k, got, wantNorm[i])
				}
			}
			got := tl.Stats()
			if !agreeAt(got.OverloadedTime, wantTS.OverloadedTime) {
				t.Fatalf("seed %d %s %v: |T_o| stream %.17g vs reference %.17g",
					seed, p.Name(), eng, got.OverloadedTime, wantTS.OverloadedTime)
			}
			if got.BusyPeriods != wantTS.BusyPeriods {
				t.Fatalf("seed %d %s %v: busy periods %d vs reference %d",
					seed, p.Name(), eng, got.BusyPeriods, wantTS.BusyPeriods)
			}
			comparisons++
		}
	}
	t.Logf("%d observer-vs-reference comparisons across %d seeds", comparisons, seeds)
}
