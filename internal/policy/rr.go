// Package policy implements the scheduling policies analyzed or referenced
// by the SPAA 2015 paper "Temporal Fairness of Round Robin": Round Robin
// itself (the paper's subject), the clairvoyant baselines SRPT and SJF, the
// non-clairvoyant baselines SETF, FCFS and LAPS, the age-weighted Round
// Robin variant (WRR) from the paper's backstory, and a classic MLFQ as a
// practical RR-derived extension.
//
// Every policy implements core.Policy. Non-clairvoyant policies never read
// JobView.Size or JobView.Remaining; this is verified by property tests.
package policy

import "rrnorm/internal/core"

// RR is Round Robin, the paper's subject: at any time every alive job
// receives rate min{1, m/n_t}, where n_t is the number of alive jobs
// (Section 2 of the paper). It is non-clairvoyant and instantaneously fair.
type RR struct{}

// NewRR returns the Round Robin policy.
func NewRR() RR { return RR{} }

// Name implements core.Policy.
func (RR) Name() string { return "RR" }

// Clairvoyant implements core.Policy.
func (RR) Clairvoyant() bool { return false }

// Rates implements core.Policy: every alive job receives the equal fair
// share env.FairShare(n) — min{1, m/n} on identical machines; on uniform
// machines prefix[min(n,m)]/n, the n fastest machines time-shared equally
// when n ≤ m and the full capacity Σspeeds split n ways otherwise (see
// core.MachineEnv.FairShare for the water-filling derivation). RR stays
// instantaneously fair and never preempts: every alive job's rate is
// positive at all times.
func (RR) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	share := env.FairShare(len(jobs))
	for i := range rates {
		rates[i] = share
	}
	return core.NoHorizon
}
