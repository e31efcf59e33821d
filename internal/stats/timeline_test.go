package stats_test

import (
	"math"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

func timelineInstance(seed uint64, n int) *core.Instance {
	return workload.PoissonLoad(stats.NewRNG(seed), n, 2, 0.95, workload.ExpSizes{M: 1})
}

// segmentTimeStats recomputes core.TimeStats from a recorded segment
// timeline on m machines, interval by interval, as an oracle for the
// one-pass observer.
func segmentTimeStats(segs []core.Segment, m int) core.TimeStats {
	var ts core.TimeStats
	if len(segs) == 0 {
		return ts
	}
	ts.Start = segs[0].Start
	ts.End = segs[len(segs)-1].End
	total := ts.End - ts.Start
	if total <= 0 {
		return ts
	}
	var aliveArea, rateArea float64
	prevEnd := ts.Start
	for si := range segs {
		seg := &segs[si]
		d := seg.Duration()
		if si == 0 || seg.Start > prevEnd+1e-12*(1+seg.Start) {
			ts.BusyPeriods++
		}
		prevEnd = seg.End
		ts.BusyTime += d
		n := len(seg.Jobs)
		aliveArea += float64(n) * d
		if n > ts.MaxAlive {
			ts.MaxAlive = n
		}
		if n >= m {
			ts.OverloadedTime += d
		}
		var sum float64
		for _, r := range seg.Rates {
			sum += r
		}
		rateArea += sum * d
	}
	ts.AvgAlive = aliveArea / total
	ts.Utilization = rateArea / (float64(m) * total)
	return ts
}

// TestTimelineObserverMatchesComputeTimeStats: on the reference engine the
// observer consumes exactly the intervals a SegmentRecorder records, with
// the same arithmetic as segmentTimeStats — the two must agree to the
// last bit.
func TestTimelineObserverMatchesComputeTimeStats(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		in := timelineInstance(seed, 400)
		o := stats.NewTimelineObserver(2)
		var rec core.SegmentRecorder
		if _, err := core.Run(in, policy.NewRR(), core.Options{
			Machines: 2, Speed: 1, Observer: core.Multi(o, &rec),
		}); err != nil {
			t.Fatal(err)
		}
		want := segmentTimeStats(rec.Segments, 2)
		got := o.Stats()
		if got != want {
			t.Fatalf("seed %d: observer %+v\n  != segment-derived %+v", seed, got, want)
		}
		if of := o.OverloadFraction(); math.Abs(of-want.OverloadedTime/(want.End-want.Start)) > 1e-15 {
			t.Fatalf("seed %d: OverloadFraction %v inconsistent with stats %+v", seed, of, want)
		}
	}
}

// TestTimelineObserverFastEngine: the fast paths emit aggregate-only
// epochs; time-averaged stats must agree with the same observer on the
// reference engine within the differential tolerance.
func TestTimelineObserverFastEngine(t *testing.T) {
	pols := []core.Policy{policy.NewRR(), policy.NewSRPT(), policy.NewFCFS()}
	for _, p := range pols {
		in := timelineInstance(11, 500)
		ref := stats.NewTimelineObserver(2)
		if _, err := core.Run(in, p, core.Options{Machines: 2, Speed: 1, Observer: ref}); err != nil {
			t.Fatal(err)
		}
		want := ref.Stats()

		o := stats.NewTimelineObserver(2)
		if _, err := fast.Run(in, p, core.Options{Machines: 2, Speed: 1, Engine: core.EngineFast, Observer: o}); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		got := o.Stats()
		if of := o.OverloadFraction(); math.Abs(of-got.OverloadedTime/(got.End-got.Start)) > 1e-15 {
			t.Fatalf("%s: OverloadFraction %v inconsistent with stats %+v", p.Name(), of, got)
		}
		close := func(a, b float64, what string) {
			t.Helper()
			if d := math.Abs(a - b); d > 1e-6*(1+math.Max(math.Abs(a), math.Abs(b))) {
				t.Errorf("%s: %s fast %v vs reference %v", p.Name(), what, a, b)
			}
		}
		close(got.Start, want.Start, "Start")
		close(got.End, want.End, "End")
		close(got.AvgAlive, want.AvgAlive, "AvgAlive")
		close(got.Utilization, want.Utilization, "Utilization")
		close(got.BusyTime, want.BusyTime, "BusyTime")
		close(got.OverloadedTime, want.OverloadedTime, "OverloadedTime")
		if got.MaxAlive != want.MaxAlive {
			t.Errorf("%s: MaxAlive %d vs %d", p.Name(), got.MaxAlive, want.MaxAlive)
		}
		if got.BusyPeriods != want.BusyPeriods {
			t.Errorf("%s: BusyPeriods %d vs %d", p.Name(), got.BusyPeriods, want.BusyPeriods)
		}
	}
}

func TestTimelineObserverTrajectory(t *testing.T) {
	in := core.NewInstance([]core.Job{
		{ID: 1, Release: 0, Size: 2},
		{ID: 2, Release: 1, Size: 2},
		{ID: 3, Release: 10, Size: 1},
	})
	o := stats.NewTimelineObserver(1)
	o.KeepTrajectory = true
	if _, err := core.Run(in, policy.NewRR(), core.Options{Machines: 1, Speed: 1, Observer: o}); err != nil {
		t.Fatal(err)
	}
	traj := o.Trajectory()
	if len(traj) == 0 {
		t.Fatal("no trajectory recorded")
	}
	// Consecutive points always change the alive count, and times ascend.
	for i := 1; i < len(traj); i++ {
		if traj[i].N == traj[i-1].N {
			t.Fatalf("trajectory %d repeats alive count %d", i, traj[i].N)
		}
		if traj[i].T < traj[i-1].T {
			t.Fatalf("trajectory times not ascending at %d", i)
		}
	}
	if traj[0].N != 1 {
		t.Fatalf("first point alive=%d, want 1", traj[0].N)
	}

	// Reset keeps the knobs and clears the data.
	o.Reset()
	if len(o.Trajectory()) != 0 || o.Stats() != (core.TimeStats{}) {
		t.Fatal("Reset did not clear")
	}
	if !o.KeepTrajectory || o.Machines != 1 {
		t.Fatal("Reset dropped configuration")
	}
}

func TestTimelineObserverEmpty(t *testing.T) {
	o := stats.NewTimelineObserver(1)
	if o.Stats() != (core.TimeStats{}) || o.OverloadFraction() != 0 {
		t.Fatal("unused observer must report zeroes")
	}
}
