package core

import (
	"math/rand/v2"
	"testing"
)

func TestAssignSingleJob(t *testing.T) {
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 2}})
	res, segs := mustRunSegs(t, in, eqPolicy{}, DefaultOptions())
	ms, err := AssignMachines(res, segs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || len(ms[0].Slices) == 0 {
		t.Fatalf("assignment: %+v", ms)
	}
	if err := ValidateAssignment(res, ms); err != nil {
		t.Fatal(err)
	}
}

func TestAssignWrapAround(t *testing.T) {
	// 3 equal jobs sharing 2 machines: rates 2/3 each force a McNaughton
	// wrap within every segment.
	in := NewInstance([]Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 0, Size: 2},
		{ID: 2, Release: 0, Size: 2},
	})
	opts := DefaultOptions()
	opts.Machines = 2
	res, segs := mustRunSegs(t, in, eqPolicy{}, opts)
	ms, err := AssignMachines(res, segs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateAssignment(res, ms); err != nil {
		t.Fatal(err)
	}
	// Both machines must carry work.
	if len(ms[0].Slices) == 0 || len(ms[1].Slices) == 0 {
		t.Fatalf("machines unused: %+v", ms)
	}
}

// TestAssignNeedsSegments: without the run's timeline the assignment has
// no slices, and ValidateAssignment rejects it for missing work.
func TestAssignNeedsSegments(t *testing.T) {
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 1}})
	res := mustRun(t, in, eqPolicy{}, DefaultOptions())
	ms, err := AssignMachines(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateAssignment(res, ms); err == nil {
		t.Fatal("expected ValidateAssignment to reject an assignment built without segments")
	}
}

// TestAssignRandomSchedules: every simulated rate profile must be
// realizable; validate the construction across policies, machine counts
// and speeds.
func TestAssignRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 2+rng.IntN(25))
		opts := Options{Machines: 1 + rng.IntN(4), Speed: 0.5 + 2*rng.Float64()}
		for _, p := range []Policy{eqPolicy{}, onePolicy{}} {
			res, segs := mustRunSegs(t, in, p, opts)
			ms, err := AssignMachines(res, segs)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, p.Name(), err)
			}
			if len(ms) != opts.Machines {
				t.Fatalf("machine count %d, want %d", len(ms), opts.Machines)
			}
			if err := ValidateAssignment(res, ms); err != nil {
				t.Fatalf("trial %d %s (m=%d s=%.3g): %v", trial, p.Name(), opts.Machines, opts.Speed, err)
			}
		}
	}
}
