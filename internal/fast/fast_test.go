package fast

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/policy"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func mustFast(t *testing.T, in *core.Instance, p core.Policy, opts core.Options) *core.Result {
	t.Helper()
	opts.Engine = core.EngineFast
	res, err := Run(in, p, opts)
	if err != nil {
		t.Fatalf("fast.Run(%s): %v", p.Name(), err)
	}
	return res
}

func TestRRKnownSchedules(t *testing.T) {
	// Two size-2 jobs at t=0 share one machine: both complete at 4.
	in := core.NewInstance([]core.Job{{ID: 0, Release: 0, Size: 2}, {ID: 1, Release: 0, Size: 2}})
	res := mustFast(t, in, policy.NewRR(), core.Options{Machines: 1, Speed: 1})
	approx(t, res.Completion[0], 4, 1e-12, "job 0")
	approx(t, res.Completion[1], 4, 1e-12, "job 1")

	// Staggered: A(2)@0, B(1)@1 → both complete at 3 (see core engine tests).
	in = core.NewInstance([]core.Job{{ID: 0, Release: 0, Size: 2}, {ID: 1, Release: 1, Size: 1}})
	res = mustFast(t, in, policy.NewRR(), core.Options{Machines: 1, Speed: 1})
	approx(t, res.Completion[0], 3, 1e-12, "A")
	approx(t, res.Completion[1], 3, 1e-12, "B")
	approx(t, res.Flow[1], 2, 1e-12, "B flow")

	// Idle gap.
	in = core.NewInstance([]core.Job{{ID: 0, Release: 0, Size: 1}, {ID: 1, Release: 10, Size: 1}})
	res = mustFast(t, in, policy.NewRR(), core.Options{Machines: 1, Speed: 1})
	approx(t, res.Completion[0], 1, 1e-12, "job 0")
	approx(t, res.Completion[1], 11, 1e-12, "job 1")

	// Speed scaling.
	in = core.NewInstance([]core.Job{{ID: 1, Release: 2, Size: 5}})
	res = mustFast(t, in, policy.NewRR(), core.Options{Machines: 1, Speed: 2.5})
	approx(t, res.Flow[0], 2, 1e-12, "flow at speed 2.5")

	// Underloaded multi-machine: every job runs at full rate.
	in = core.NewInstance([]core.Job{
		{ID: 0, Release: 0, Size: 3},
		{ID: 1, Release: 0, Size: 1},
		{ID: 2, Release: 0.5, Size: 2},
	})
	res = mustFast(t, in, policy.NewRR(), core.Options{Machines: 4, Speed: 1})
	approx(t, res.Completion[0], 3, 1e-12, "job 0")
	approx(t, res.Completion[1], 1, 1e-12, "job 1")
	approx(t, res.Completion[2], 2.5, 1e-12, "job 2")
}

func TestFCFSKnownSchedule(t *testing.T) {
	in := core.NewInstance([]core.Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 0.5, Size: 2},
	})
	res := mustFast(t, in, policy.NewFCFS(), core.Options{Machines: 1, Speed: 1})
	approx(t, res.Completion[0], 2, 1e-12, "job 0")
	approx(t, res.Completion[1], 4, 1e-12, "job 1")
}

func TestSRPTPreemption(t *testing.T) {
	// Big job first, then a small job preempts it.
	in := core.NewInstance([]core.Job{
		{ID: 0, Release: 0, Size: 4},
		{ID: 1, Release: 1, Size: 1},
	})
	res := mustFast(t, in, policy.NewSRPT(), core.Options{Machines: 1, Speed: 1})
	approx(t, res.Completion[1], 2, 1e-12, "small job runs immediately")
	approx(t, res.Completion[0], 5, 1e-12, "big job resumes after")
}

func TestSRPTTieBreakByReleaseThenID(t *testing.T) {
	// Remaining of job 0 hits exactly 1 when job 1 (size 1) arrives: the
	// earlier release wins the tie in both engines.
	in := core.NewInstance([]core.Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 1, Size: 1},
	})
	res := mustFast(t, in, policy.NewSRPT(), core.Options{Machines: 1, Speed: 1})
	ref, err := core.Run(in, policy.NewSRPT(), core.Options{Machines: 1, Speed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Completion {
		approx(t, res.Completion[i], ref.Completion[i], 1e-9, "tie-break agreement")
	}
	approx(t, res.Completion[0], 2, 1e-12, "job 0 keeps the machine on a tie")
	approx(t, res.Completion[1], 3, 1e-12, "job 1 waits")
}

func TestStaticPriorityPreempts(t *testing.T) {
	// Low-priority job running; high-priority arrival preempts it.
	p := policy.NewStaticPriority(map[int]float64{0: 2, 1: 1})
	in := core.NewInstance([]core.Job{
		{ID: 0, Release: 0, Size: 3},
		{ID: 1, Release: 1, Size: 1},
	})
	res := mustFast(t, in, p, core.Options{Machines: 1, Speed: 1})
	approx(t, res.Completion[1], 2, 1e-12, "priority 1 preempts")
	approx(t, res.Completion[0], 4, 1e-12, "priority 2 resumes")
}

func TestZeroSizeAndBatchArrivals(t *testing.T) {
	for _, p := range []core.Policy{policy.NewRR(), policy.NewSRPT(), policy.NewFCFS()} {
		in := core.NewInstance([]core.Job{
			{ID: 0, Release: 0, Size: 1},
			{ID: 1, Release: 0, Size: 1},
			{ID: 2, Release: 0.25, Size: 0},
			{ID: 3, Release: 7, Size: 0},
		})
		res := mustFast(t, in, p, core.Options{Machines: 1, Speed: 1})
		approx(t, res.Completion[2], 0.25, 1e-12, p.Name()+" zero-size at release")
		approx(t, res.Completion[3], 7, 1e-12, p.Name()+" zero-size in idle time")
		if mf := res.MaxFlow(); mf > 2+1e-9 {
			t.Fatalf("%s: zero-size jobs delayed real work (max flow %v)", p.Name(), mf)
		}
	}
}

func TestEmptyInstance(t *testing.T) {
	res := mustFast(t, core.NewInstance(nil), policy.NewRR(), core.Options{Machines: 1, Speed: 1})
	if len(res.Flow) != 0 {
		t.Fatalf("empty instance: %+v", res)
	}
}

func TestDispatchAndFallback(t *testing.T) {
	in := core.NewInstance([]core.Job{{ID: 0, Release: 0, Size: 1}})

	// EngineFast + unsupported policy → ErrNoFastPath.
	if _, err := Run(in, policy.NewSETF(), core.Options{Machines: 1, Speed: 1, Engine: core.EngineFast}); !errors.Is(err, ErrNoFastPath) {
		t.Errorf("SETF under EngineFast: want ErrNoFastPath, got %v", err)
	}
	// EngineFast + RecordSegments → ErrNoFastPath (only the reference
	// engine produces the rate timeline).
	if _, err := Run(in, policy.NewRR(), core.Options{Machines: 1, Speed: 1, RecordSegments: true, Engine: core.EngineFast}); !errors.Is(err, ErrNoFastPath) {
		t.Errorf("RecordSegments under EngineFast: want ErrNoFastPath, got %v", err)
	}
	// EngineAuto + unsupported policy falls back to the reference engine.
	res, err := Run(in, policy.NewSETF(), core.Options{Machines: 1, Speed: 1})
	if err != nil || res.Events == 0 {
		t.Errorf("SETF under EngineAuto should fall back: %v %+v", err, res)
	}
	// EngineAuto + RecordSegments falls back and records segments.
	res, err = Run(in, policy.NewRR(), core.Options{Machines: 1, Speed: 1, RecordSegments: true})
	if err != nil || len(res.Segments) == 0 {
		t.Errorf("RecordSegments under EngineAuto should fall back with segments: %v", err)
	}
	// Bad options surface the same sentinel as core.Run.
	if _, err := Run(in, policy.NewRR(), core.Options{Machines: 0, Speed: 1, Engine: core.EngineFast}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("machines=0: want ErrBadOptions, got %v", err)
	}
	if _, err := Run(in, policy.NewRR(), core.Options{Machines: 1, Speed: 0, Engine: core.EngineFast}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("speed=0: want ErrBadOptions, got %v", err)
	}
	if _, err := Run(in, policy.NewRR(), core.Options{Machines: 1, Speed: 1, Engine: EngineKindInvalid}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("bad engine kind: want ErrBadOptions, got %v", err)
	}
}

// EngineKindInvalid is an out-of-range selector used to test dispatch.
const EngineKindInvalid core.EngineKind = 97

func TestEligible(t *testing.T) {
	opts := core.Options{Machines: 1, Speed: 1}
	for _, p := range []core.Policy{policy.NewRR(), policy.NewSRPT(), policy.NewSJF(), policy.NewFCFS(), policy.NewStaticPriority(nil)} {
		if !Eligible(p, opts) {
			t.Errorf("%s should be eligible", p.Name())
		}
	}
	for _, p := range []core.Policy{policy.NewSETF(), policy.NewLAPS(0.5), policy.NewMLFQ(0.5), policy.NewWRR(0.01)} {
		if Eligible(p, opts) {
			t.Errorf("%s should not be eligible", p.Name())
		}
	}
	if Eligible(policy.NewRR(), core.Options{Machines: 1, Speed: 1, RecordSegments: true}) {
		t.Error("RecordSegments must disable the fast path")
	}
	speeds := core.Options{Machines: 2, Speed: 1, MachineModel: core.Machines{Speeds: []float64{1, 3}}}
	costly := speeds
	costly.MachineModel.PreemptCost = 0.5
	for _, p := range []core.Policy{policy.NewSRPT(), policy.NewFCFS()} {
		if !Eligible(p, speeds) {
			t.Errorf("%s on speeds [1 3] should be eligible", p.Name())
		}
		if Eligible(p, costly) {
			t.Errorf("%s with PreemptCost 0.5 should not be eligible", p.Name())
		}
	}
	if Eligible(policy.NewHybrid(0.5, 0), speeds) {
		t.Error("HYBRID has no fast path")
	}
}

// TestDeterminism: the fast engine must be bit-identical across runs.
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	jobs := make([]core.Job, 200)
	tt := 0.0
	for i := range jobs {
		tt += rng.Float64()
		jobs[i] = core.Job{ID: i, Release: tt, Size: 0.1 + rng.Float64()*4}
	}
	in := core.NewInstance(jobs)
	for _, p := range []core.Policy{policy.NewRR(), policy.NewSRPT(), policy.NewFCFS()} {
		a := mustFast(t, in, p, core.Options{Machines: 2, Speed: 1.5})
		b := mustFast(t, in, p, core.Options{Machines: 2, Speed: 1.5})
		for i := range a.Completion {
			if a.Completion[i] != b.Completion[i] {
				t.Fatalf("%s: completion %d differs across runs", p.Name(), i)
			}
		}
	}
}
