package stats

import "rrnorm/internal/core"

// TimePoint is one step of the n_t trajectory recorded by a
// TimelineObserver: the alive count becomes N at time T.
type TimePoint struct {
	T float64
	N int
}

// TimelineObserver accumulates core.TimeStats' time-averaged quantities —
// average and peak n_t, utilization, busy time and busy-period count, and
// the overloaded time |T_o| (t with n_t ≥ m) — from the epoch stream in
// one pass, using only each epoch's aggregates. It therefore works on both
// engines (no per-job epochs needed) and in O(1) state; across engines the
// differential harness checks it at 1e-6.
//
// With KeepTrajectory set before the run, the observer additionally
// records the n_t trajectory — one TimePoint per change of the alive
// count, which bounds its memory by the number of distinct alive counts
// hit, not by the event count.
type TimelineObserver struct {
	// Machines is m for the overload test n_t ≥ m and the utilization
	// denominator; set it before the run (NewTimelineObserver does).
	Machines int
	// KeepTrajectory enables Trajectory recording.
	KeepTrajectory bool

	started     bool
	start, end  float64
	prevEnd     float64
	aliveArea   float64
	rateArea    float64
	busyTime    float64
	busyPeriods int
	overTime    float64
	maxAlive    int
	traj        []TimePoint
}

// NewTimelineObserver returns an observer for an m-machine run.
func NewTimelineObserver(m int) *TimelineObserver {
	return &TimelineObserver{Machines: m}
}

// Reset clears the accumulated state for a new run, keeping Machines,
// KeepTrajectory and the trajectory buffer's capacity.
func (o *TimelineObserver) Reset() {
	traj := o.traj[:0]
	*o = TimelineObserver{Machines: o.Machines, KeepTrajectory: o.KeepTrajectory, traj: traj}
}

// ObserveArrival implements core.Observer.
func (o *TimelineObserver) ObserveArrival(t float64, job int, j core.Job) {}

// ObserveEpoch implements core.Observer: one rate-constant interval is
// folded into every accumulator.
func (o *TimelineObserver) ObserveEpoch(e *core.Epoch) {
	d := e.End - e.Start
	// A new busy period starts at the first epoch and whenever the
	// timeline jumps past float dust.
	if !o.started || e.Start > o.prevEnd+1e-12*(1+e.Start) {
		o.busyPeriods++
	}
	if !o.started {
		o.started = true
		o.start = e.Start
	}
	o.prevEnd = e.End
	o.end = e.End
	o.busyTime += d
	o.aliveArea += float64(e.Alive) * d
	if e.Alive > o.maxAlive {
		o.maxAlive = e.Alive
	}
	if e.Alive >= o.Machines {
		o.overTime += d
	}
	o.rateArea += e.RateSum * d
	if o.KeepTrajectory {
		if n := len(o.traj); n == 0 || o.traj[n-1].N != e.Alive {
			o.traj = append(o.traj, TimePoint{T: e.Start, N: e.Alive})
		}
	}
}

// ObserveCompletion implements core.Observer.
func (o *TimelineObserver) ObserveCompletion(t float64, job int, flow float64) {}

// ObserveDone implements core.Observer.
func (o *TimelineObserver) ObserveDone(res *core.Result) {}

// Stats returns the accumulated quantities. No epochs, or a zero-length
// horizon, yield zeroed derived fields.
func (o *TimelineObserver) Stats() core.TimeStats {
	var ts core.TimeStats
	if !o.started {
		return ts
	}
	ts.Start = o.start
	ts.End = o.end
	total := ts.End - ts.Start
	if total <= 0 {
		return ts
	}
	ts.AvgAlive = o.aliveArea / total
	ts.MaxAlive = o.maxAlive
	ts.Utilization = o.rateArea / (float64(o.Machines) * total)
	ts.BusyTime = o.busyTime
	ts.BusyPeriods = o.busyPeriods
	ts.OverloadedTime = o.overTime
	return ts
}

// OverloadFraction returns |T_o| / (End − Start), the fraction of the
// horizon spent overloaded (0 for an empty or zero-length horizon).
func (o *TimelineObserver) OverloadFraction() float64 {
	if !o.started {
		return 0
	}
	total := o.end - o.start
	if total <= 0 {
		return 0
	}
	return o.overTime / total
}

// Trajectory returns the recorded n_t trajectory (nil unless
// KeepTrajectory was set). The slice is owned by the observer.
func (o *TimelineObserver) Trajectory() []TimePoint { return o.traj }
