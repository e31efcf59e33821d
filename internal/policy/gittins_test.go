package policy

import (
	"math"
	"testing"

	"rrnorm/internal/core"
)

func expCDF(x float64) float64 { return 1 - math.Exp(-x) }

// paretoCDF is Pareto(α=1.5, xm=1) truncated at 100.
func paretoCDF(x float64) float64 {
	if x < 1 {
		return 0
	}
	raw := 1 - math.Pow(x, -1.5)
	norm := 1 - math.Pow(100, -1.5)
	return raw / norm
}

func uniformCDF(x float64) float64 {
	switch {
	case x < 1:
		return 0
	case x > 2:
		return 1
	default:
		return x - 1
	}
}

// TestGittinsExpFlat: memoryless service ⇒ the Gittins index is constant
// in attained service.
func TestGittinsExpFlat(t *testing.T) {
	g := NewGittins(expCDF, 20, 2000)
	if kind := g.MonotoneKind(); kind != 0 {
		t.Fatalf("exp rank should be flat, got kind %d", kind)
	}
	r0, r5 := g.Rank(0), g.Rank(5)
	if math.Abs(r0-r5) > 0.05*r0 {
		t.Fatalf("exp ranks differ: %v vs %v", r0, r5)
	}
	// For exp(1), G(a) = sup (F(a+Δ)−F(a))/∫(1−F) = 1 (hazard rate).
	if math.Abs(r0-1) > 0.05 {
		t.Fatalf("exp(1) rank %v, want ≈ 1", r0)
	}
}

// TestGittinsParetoDecreasing: heavy tails ⇒ rank decreases with attained
// service (the policy behaves like SETF).
func TestGittinsParetoDecreasing(t *testing.T) {
	g := NewGittins(paretoCDF, 100, 2000)
	if g.Rank(2) <= g.Rank(20) {
		t.Fatalf("Pareto rank should decrease: G(2)=%v G(20)=%v", g.Rank(2), g.Rank(20))
	}
}

// TestGittinsUniformIncreasing: increasing hazard ⇒ rank increases (jobs
// near their deterministic end are almost done — finish them).
func TestGittinsUniformIncreasing(t *testing.T) {
	g := NewGittins(uniformCDF, 2, 2000)
	if g.Rank(1.8) <= g.Rank(1.1) {
		t.Fatalf("uniform rank should increase: G(1.1)=%v G(1.8)=%v", g.Rank(1.1), g.Rank(1.8))
	}
}

// TestGittinsSchedulesToCompletion: end-to-end run with feasible schedule.
func TestGittinsSchedulesToCompletion(t *testing.T) {
	in := core.NewInstance([]core.Job{
		{ID: 0, Release: 0, Size: 3},
		{ID: 1, Release: 0.5, Size: 0.7},
		{ID: 2, Release: 1, Size: 1.4},
	})
	g := NewGittins(expCDF, 20, 500)
	res := run(t, in, g, 1, 1)
	if res.Makespan() < 5 || res.Makespan() > 5.4 {
		t.Fatalf("makespan %v (work conservation: total 5.1)", res.Makespan())
	}
}

// TestGittinsIsNonclairvoyant: perturbing sizes must not change decisions.
func TestGittinsIsNonclairvoyant(t *testing.T) {
	g := NewGittins(expCDF, 20, 500)
	jobs := []core.JobView{
		{ID: 0, Release: 0, Elapsed: 0.4, Size: 5, Remaining: 4.6},
		{ID: 1, Release: 1, Elapsed: 1.9, Size: 2, Remaining: 0.1},
	}
	alt := append([]core.JobView(nil), jobs...)
	alt[0].Size, alt[0].Remaining = 50, 49.6
	alt[1].Size, alt[1].Remaining = 2.0, 0.05
	a := make([]float64, 2)
	b := make([]float64, 2)
	h1 := g.Rates(2, jobs, identical(1), a)
	h2 := g.Rates(2, alt, identical(1), b)
	if h1 != h2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatal("Gittins decisions depend on true sizes")
	}
}
