package core

// JobView is the per-job state a policy sees when asked for rates.
//
// Non-clairvoyant policies (RR, SETF, FCFS, WRR, LAPS, MLFQ) must only read
// ID, Release, Age and Elapsed. Clairvoyant policies (SRPT, SJF) may also
// read Size and Remaining. This contract is enforced by property tests that
// perturb sizes and assert non-clairvoyant policies' outputs are unchanged
// (the paper stresses that RR is non-clairvoyant: it never needs p_j before
// completion).
type JobView struct {
	ID        int
	Release   float64
	Weight    float64 // effective weight (≥ 0; 1 when the job left it unset)
	Age       float64 // now − Release
	Elapsed   float64 // processing received so far (true work units)
	Size      float64 // p_j (clairvoyant)
	Remaining float64 // Size − Elapsed (clairvoyant)
}

// NoHorizon indicates the returned rates stay valid until the next arrival
// or completion.
const NoHorizon = 0

// Policy decides instantaneous machine rates for alive jobs.
//
// Rates fills rates[i] for jobs[i] with a rate vector feasible on env: each
// rate in [0, env.MaxSpeed()] (a job runs on at most one machine at a
// time), and the k largest rates summing to at most env.PrefixSpeed(k) for
// every k (any k jobs jointly use at most the k fastest machines). On
// identical unit machines (env.Identical(), the paper's setting) that is
// rates[i] ∈ [0,1] with Σ rates ≤ env.M: rates are machine shares. The
// slices jobs and rates have equal length; rates arrives zeroed.
// env.Speed is the engine's resource-augmentation factor (work accrues at
// rate·Speed), which policies need only to convert internal work-based
// deadlines into the wall-clock horizon they return. env answers every
// machine question a policy needs — FairShare for equal splits, RankSpeed
// for the r-th fastest machine, ProfileIntegral for tiered fills — with
// the identical-machine expressions when env.Identical().
//
// The returned horizon, if positive, is the maximum wall-clock duration for
// which these rates may be used before the policy must be consulted again
// even absent arrivals/completions — policies whose rates change at internal
// moments (SETF catch-ups, WRR quanta, MLFQ demotions) use it. Return
// NoHorizon when rates remain valid until the next arrival or completion.
//
// The jobs slice is ordered by (Release, ID) and views are recomputed at
// every invocation; policies must not retain the slices or env.
type Policy interface {
	Name() string
	Clairvoyant() bool
	Rates(now float64, jobs []JobView, env *MachineEnv, rates []float64) (horizon float64)
}

// Resetter is implemented by stateful policies (e.g. MLFQ) that must be
// reset between runs. The engine calls Reset at the start of every Run.
type Resetter interface {
	Reset()
}
