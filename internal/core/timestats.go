package core

// TimeStats are time-averaged quantities of a schedule, as accumulated by
// stats.TimelineObserver from a run's epoch stream.
type TimeStats struct {
	// Horizon is [Start, End] covered by epochs.
	Start, End float64
	// AvgAlive is the time-average number of alive jobs over [Start, End]
	// (the L of Little's law L = λ·W).
	AvgAlive float64
	// MaxAlive is the peak alive count.
	MaxAlive int
	// Utilization is the consumed machine share: ∫ Σ_j rate_j dt / (m·T).
	Utilization float64
	// BusyTime is the total time with at least one alive job; BusyPeriods
	// counts maximal busy intervals.
	BusyTime    float64
	BusyPeriods int
	// OverloadedTime is the total time with n_t ≥ m (the paper's T_o).
	OverloadedTime float64
}
