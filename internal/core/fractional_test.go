package core

import (
	"math/rand/v2"
	"strings"
	"testing"
)

func TestFractionalFlowSingleJob(t *testing.T) {
	// One job alone: remaining falls linearly, so fractional flow is half
	// the flow.
	in := NewInstance([]Job{{ID: 0, Release: 1, Size: 4}})
	res, segs := mustRunSegs(t, in, eqPolicy{}, DefaultOptions())
	ff := FractionalFlows(res, segs)
	approx(t, ff[0], 2, 1e-9, "fractional flow = F/2 for a lone job")
}

// TestFractionalFlowNeedsSegments: fractional flow is integrated from the
// timeline it is handed, so a run's positive flow shows up only with its
// segments; without them every job reads 0 (ValidateResult is the check
// that rejects a missing timeline).
func TestFractionalFlowNeedsSegments(t *testing.T) {
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 1}})
	res, segs := mustRunSegs(t, in, eqPolicy{}, DefaultOptions())
	if ff := FractionalFlows(res, segs); !(ff[0] > 0) {
		t.Fatalf("with segments: fractional flow %v, want > 0", ff[0])
	}
	if ff := FractionalFlows(res, nil); ff[0] != 0 {
		t.Fatalf("without segments: fractional flow %v, want 0", ff[0])
	}
}

func TestFractionalFlowEmpty(t *testing.T) {
	res, segs := mustRunSegs(t, NewInstance(nil), eqPolicy{}, DefaultOptions())
	if ff := FractionalFlows(res, segs); ff != nil {
		t.Fatalf("empty: %v", ff)
	}
}

// Fractional flow is at most the integral flow and positive, on random
// instances under both sharing and focused policies.
func TestFractionalFlowBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 7))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng, 1+rng.IntN(25))
		opts := Options{Machines: 1 + rng.IntN(3), Speed: 1 + rng.Float64()}
		for _, p := range []Policy{eqPolicy{}, onePolicy{}} {
			res, segs := mustRunSegs(t, in, p, opts)
			ff := FractionalFlows(res, segs)
			for i := range ff {
				if ff[i] <= 0 || ff[i] > res.Flow[i]*(1+1e-9) {
					t.Fatalf("trial %d %s: fractional flow %v vs flow %v", trial, p.Name(), ff[i], res.Flow[i])
				}
			}
		}
	}
}

func TestRenderGantt(t *testing.T) {
	in := NewInstance([]Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 1, Size: 1},
	})
	res, segs := mustRunSegs(t, in, eqPolicy{}, DefaultOptions())
	out := RenderGantt(res, segs, 30)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 job rows
		t.Fatalf("gantt lines: %d\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "█") {
		t.Fatalf("job 0 should show full-rate glyphs early:\n%s", out)
	}
	if RenderGantt(&Result{}, nil, 30) != "(empty schedule)\n" {
		t.Fatal("empty render")
	}
}

// TestAgeMomentObserverSingleJob: a lone job of size p run at full rate
// and speed 1 is charged ∫_0^p (1/p)·t^k dt = p^k/(k+1).
func TestAgeMomentObserverSingleJob(t *testing.T) {
	in := NewInstance([]Job{{ID: 0, Release: 3, Size: 2}})
	for _, k := range []int{1, 2, 3} {
		o := NewAgeMomentObserver(k, 1)
		mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1, Observer: o})
		approx(t, o.Value(), pow1(2, k)/float64(k+1), 1e-12, "lone-job age moment")
	}
	if !ObserverNeedsJobEpochs(NewAgeMomentObserver(1, 1)) {
		t.Fatal("AgeMomentObserver must need job epochs")
	}
}

// TestAgeMomentK1EqualsFractionalFlow: the k=1 age moment equals the total
// fractional flow (integration by parts), epoch-exactly.
func TestAgeMomentK1EqualsFractionalFlow(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng, 2+rng.IntN(20))
		opts := Options{Machines: 1 + rng.IntN(3), Speed: 1 + rng.Float64()}
		for _, p := range []Policy{eqPolicy{}, onePolicy{}} {
			o := NewAgeMomentObserver(1, opts.Speed)
			var rec SegmentRecorder
			opts.Observer = Multi(o, &rec)
			res := mustRun(t, in, p, opts)
			moment := o.Value()
			ff := FractionalFlows(res, rec.Segments)
			var sum float64
			for _, f := range ff {
				sum += f
			}
			if d := moment - sum; d > 1e-6*(1+sum) || d < -1e-6*(1+sum) {
				t.Fatalf("trial %d %s: moment %v vs Σ fractional flows %v", trial, p.Name(), moment, sum)
			}
		}
	}
}

// TestAgeMomentBelowIntegral: the k-th age moment never exceeds Σ F^k
// (every unit is processed at age ≤ F).
func TestAgeMomentBelowIntegral(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	for trial := 0; trial < 15; trial++ {
		in := randomInstance(rng, 2+rng.IntN(15))
		for _, k := range []int{1, 2, 3} {
			o := NewAgeMomentObserver(k, 1)
			res := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1, Observer: o})
			moment := o.Value()
			var integral float64
			for _, f := range res.Flow {
				integral += pow1(f, k)
			}
			if moment > integral*(1+1e-9) {
				t.Fatalf("trial %d k=%d: moment %v above integral %v", trial, k, moment, integral)
			}
		}
	}
}
