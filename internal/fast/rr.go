package fast

import (
	"rrnorm/internal/core"
	"rrnorm/internal/queue"
)

// rrRun is the Round Robin sweep state. admit/complete are methods on a
// stack-local value rather than closures so that workspace-reuse runs stay
// allocation-free (captured-variable closures escape to the heap). Exactly
// one of res (materialized sink) and sum (streaming sink) is non-nil;
// arrivals come from the cursor either way, so materialized and streaming
// runs execute the same admissions byte for byte.
type rrRun struct {
	cur   *core.Cursor
	res   *core.Result
	sum   *core.StreamResult
	h     *queue.JobHeap
	now   float64
	V     float64 // cumulative per-job fair share
	speed float64

	// env gives RR's per-job share, env.FairShare(alive): min(1, m/alive)
	// on identical machines, the water-filling share on uniform ones.
	env *core.MachineEnv

	obs core.Observer // nil when no observer attached
	ep  *core.Epoch   // workspace-held epoch for allocation-free dispatch
}

// admit moves all jobs released by now into the heap; degenerate
// (sub-tolerance size) jobs complete at admission, mirroring core.Run.
// Each heap entry carries the job's completion target, sequence number,
// release and tolerance — everything its completion needs, so no
// full-instance side arrays exist and memory stays O(alive).
func (r *rrRun) admit() {
	for r.cur.More() && r.cur.Head().Release <= r.now {
		j, seq := r.cur.Advance()
		if r.obs != nil {
			r.obs.ObserveArrival(r.now, seq, j)
		}
		tol := core.CompletionTol(j.Size)
		if j.Size <= tol {
			recordFinish(r.res, r.sum, r.obs, seq, j.Release, r.now)
			continue
		}
		r.h.Push(queue.JobItem{Key: r.V + j.Size, Seq: seq, Release: j.Release, Tol: tol})
	}
}

// complete pops every job whose remaining work target−V is within its
// completion tolerance — the same boundary-check semantics as the
// reference engine applies at the end of each step.
func (r *rrRun) complete() {
	for r.h.Len() > 0 {
		it := r.h.Min()
		if it.Key-r.V > it.Tol {
			return
		}
		r.h.PopMin()
		recordFinish(r.res, r.sum, r.obs, it.Seq, it.Release, r.now)
	}
}

// epoch emits the rate-constant interval [r.now, end) to the observer. Its
// rate sum is env.RRSum: every alive RR job shares min(1, m/alive) of a
// machine, so the sum is min(alive, m); on uniform machines it is
// alive·FairShare(alive).
func (r *rrRun) epoch(end float64) {
	alive := r.h.Len()
	emitEpoch(r.obs, r.ep, r.now, end, alive, r.env.RRSum(alive))
}

// runRR simulates Round Robin in O((n + completions) log alive) with
// incremental virtual-time ("fair share") accounting.
//
// Under RR every alive job accrues work at the identical rate
// ρ(t) = min{1, m/n_t}·s, so with V(t) = ∫ ρ(τ) dτ (the cumulative fair
// share) a job admitted at time t₀ with size p completes exactly when V
// reaches V(t₀) + p. Arrivals and completions are therefore the only
// events: the next completion is the smallest completion target in a
// min-heap, and between consecutive events ρ is constant, so each event
// costs O(log alive) instead of the reference engine's O(n_t) rate
// recomputation.
//
// One bulk-advance loop serves materialized and streaming runs alike: an
// outer sweep over arrival groups and idle gaps with an inner drain that
// pops the whole run of jobs completing before the next arrival, stamping
// completion times analytically (V lands exactly on each popped target).
// Arrivals come from the cursor (one-job lookahead, O(alive) memory) and
// the next arrival time is hoisted per drain — the cursor cannot change
// while completions pop. The heap orders by (target, sequence number); on
// the materialized path sequence numbers equal normalized indices, so
// simultaneous completions drain in normalized order. When every attached
// observer tolerates coarse epochs the loop emits one aggregate Epoch per
// maximal busy interval (Coarse == true) instead of one per event.
//
//rrlint:hotpath
func runRR(r *rrRun, opts core.Options, s *scratch) error {
	cur := r.cur
	if !cur.More() {
		return cur.Err()
	}
	r.h.Reuse(0) // capacity tracks the peak alive set, not the stream length
	r.now = cur.Head().Release
	r.admit()
	r.complete()
	events := 1
	h := r.h
	speed := r.speed
	shares := (*[rateTabSize]float64)(s.fairShares(r.env))
	exact := r.obs != nil && !core.ObserverCoarseEpochsOK(r.obs)
	coarse := r.obs != nil && !exact
	var batchStart float64
	var batchAlive int
	if coarse {
		batchStart, batchAlive = r.now, h.Len()
	}
	for {
		hasA := cur.More()
		if err := cur.Err(); err != nil {
			return err
		}
		var tA float64
		if hasA {
			tA = cur.Head().Release
		}
		// Drain: completion events, interleaved with the arrivals that
		// beat them, until the heap empties.
		for h.Len() > 0 {
			alive := h.Len()
			// rate = speed · env.FairShare(alive); the share comes from the
			// scratch's bit-exact table (see fairShares) — a load in place
			// of a hardware divide on the critical path.
			var rate float64
			if alive < rateTabSize {
				rate = speed * shares[alive]
			} else {
				rate = speed * r.env.FairShare(alive)
			}
			minKey := h.Min().Key
			tC := r.now + (minKey-r.V)/rate
			if tC < r.now {
				tC = r.now // guard against cancellation in minKey−V
			}
			if hasA && tA < tC {
				// Next event is an arrival: advance the fair share to it.
				events++
				if events&(ctxStride-1) == 0 {
					if err := core.Canceled(opts.Context, r.now, events); err != nil {
						return err
					}
				}
				if exact {
					r.epoch(tA)
				}
				r.V += (tA - r.now) * rate
				r.now = tA
				r.admit()
				r.complete()
				hasA = cur.More()
				if err := cur.Err(); err != nil {
					return err
				}
				if hasA {
					tA = cur.Head().Release
				}
				continue
			}
			// Next event is a completion: land V exactly on the target so
			// simultaneous completions (identical targets) drain together.
			events++
			if events&(ctxStride-1) == 0 {
				if err := core.Canceled(opts.Context, r.now, events); err != nil {
					return err
				}
			}
			if exact {
				r.epoch(tC)
			}
			r.V = minKey
			r.now = tC
			// Inlined complete(): V landed exactly on minKey, so the top
			// entry qualifies unconditionally (key−V = 0, tolerances are
			// strictly positive) — pop first, then drain the rest of the
			// simultaneous-completion group.
			it := h.PopMin()
			recordFinish(r.res, r.sum, r.obs, it.Seq, it.Release, tC)
			for h.Len() > 0 {
				it = h.Min()
				if it.Key-minKey > it.Tol {
					break
				}
				h.PopMin()
				recordFinish(r.res, r.sum, r.obs, it.Seq, it.Release, tC)
			}
			if coarse && tC == batchStart { //rrlint:ignore floateq instant identity: tC and batchStart carry the same propagated bits, not approximations
				// Zero-length completion at the interval's opening instant:
				// refresh the snapshot (see the topm drain for the same rule).
				batchAlive = h.Len()
			}
		}
		// The heap is empty: the busy interval that began at batchStart
		// ends here.
		if coarse {
			emitCoarseEpoch(r.obs, r.ep, batchStart, r.now, batchAlive, r.env.RRSum(batchAlive))
		}
		if !hasA {
			break
		}
		// Idle gap: jump to the next arrival; V does not advance.
		events++
		if events&(ctxStride-1) == 0 {
			if err := core.Canceled(opts.Context, r.now, events); err != nil {
				return err
			}
		}
		r.now = tA
		r.admit()
		r.complete()
		if coarse {
			batchStart, batchAlive = r.now, h.Len()
		}
	}
	if r.res != nil {
		r.res.Events = events
	} else {
		r.sum.Events = events
	}
	return cur.Err()
}
