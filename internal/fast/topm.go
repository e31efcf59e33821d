package fast

import (
	"math"

	"rrnorm/internal/core"
	"rrnorm/internal/policy"
)

// runTopM simulates the rank-based policies — the ones whose reference
// implementation assigns a full machine to each of the m best alive jobs
// under a strict order (SRPT, SJF, FCFS, StaticPriority) — in
// O((n + completions) log alive) on identical machines and
// O((n + completions)·(m + log alive)) on uniform ones.
//
// State: at any moment at most m jobs are "running" and the rest wait.
// Each running job is represented by cAt, its absolute completion time if
// its machine never changes, and a waiting job by rem, its (frozen)
// remaining work. The only events are arrivals — which start on a free
// machine, preempt the worst running job, or queue — and completions —
// which promote the best waiting job.
//
// On identical machines every running job drains at the same rate s, so
// the order of running jobs by remaining work never changes while they
// run; three indexed heaps (next completion, preemption victim, promotion
// candidate) make every event O(log alive).
//
// On uniform machines (explicit Speeds) the running set is an array of at
// most m slots in rank order, rank r running at speed·env.RankSpeed(r) —
// the r-th fastest machine, exactly what the reference engine's
// rankBuf.topMEnv assigns. SRPT's running order still never changes while
// jobs run (the least remaining work drains on the fastest machine), and
// static keys never change at all. A completion at rank q shifts ranks
// q+1.. up one machine and promotes the best waiting job into the last
// rank; an arrival is inserted at its rank, shifting the ranks below it
// down (the last one into the waiting heap when all m are busy). When a
// shift changes a job's machine speed, its remaining work is settled from
// cAt at the old speed and cAt restamped at the new one; a job within its
// completion tolerance then completes at that instant, as in the reference
// engine's end-of-step check. The next completion is the least cAt over
// the ≤ m ranks — under SRPT always rank 0, whose remaining work is the
// least and whose machine is the fastest.
//
// Alive jobs live in scratch slots allocated at admission and freed at
// completion (see scratch), pulled incrementally from a core.Cursor, so
// the same loop serves materialized instances and unbounded job streams;
// the policy order's tie-break is the arrival sequence number, which on
// the materialized path equals the normalized index — the reference
// engine's (key, Release, ID) tie-break exactly.
//
// Correctness relies on the invariant that every running job precedes every
// waiting job in the policy order. It holds because keys are static (or,
// for SRPT, only ever improve while running): a preemption victim was the
// worst running job and by induction precedes all waiting jobs, and an
// arrival beats the victim only if it precedes it. The running set is
// therefore always exactly the reference engine's top-m selection.

// ordKind selects how an ordering ranks jobs.
type ordKind uint8

const (
	// ordStatic ranks by a fixed per-slot key with the arrival-sequence
	// tie-break (sequence order is (Release, ID) order, the reference
	// tie-break). With useKey false the order is pure sequence — FCFS.
	ordStatic ordKind = iota
	// ordSRPT ranks by remaining work: frozen rem for waiting jobs,
	// cAt-implied for running ones (equal drain rate ⇒ cAt order is
	// remaining order).
	ordSRPT
)

// ordering ranks slots for the top-m engine. It reads the slot arrays
// through the scratch pointer — not captured slices — so slot growth never
// leaves it stale, and it is a concrete struct with methods rather than a
// set of closures so workspace reuse stays allocation-free.
type ordering struct {
	kind   ordKind
	useKey bool // rank by s.key (SJF, StaticPriority) before the tie-break
	s      *scratch
}

func (o *ordering) keyOf(sl int) float64 {
	if !o.useKey {
		return 0
	}
	return o.s.key[sl]
}

// waitLess orders waiting slots: the least is promoted first.
func (o *ordering) waitLess(a, b int) bool {
	if o.kind == ordSRPT {
		if o.s.rem[a] != o.s.rem[b] {
			return o.s.rem[a] < o.s.rem[b]
		}
		return o.s.seq[a] < o.s.seq[b]
	}
	if ka, kb := o.keyOf(a), o.keyOf(b); ka != kb {
		return ka < kb
	}
	return o.s.seq[a] < o.s.seq[b]
}

// worstLess orders running slots so the heap minimum is the preemption
// victim (i.e. it sorts "worse" jobs first).
func (o *ordering) worstLess(a, b int) bool {
	if o.kind == ordSRPT {
		if o.s.cAt[a] != o.s.cAt[b] {
			return o.s.cAt[a] > o.s.cAt[b]
		}
		return o.s.seq[a] > o.s.seq[b]
	}
	if ka, kb := o.keyOf(a), o.keyOf(b); ka != kb {
		return ka > kb
	}
	return o.s.seq[a] > o.s.seq[b]
}

// byCLess orders running slots by next completion.
func (o *ordering) byCLess(a, b int) bool {
	if o.s.cAt[a] != o.s.cAt[b] {
		return o.s.cAt[a] < o.s.cAt[b]
	}
	return o.s.seq[a] < o.s.seq[b]
}

// preempts reports whether a newly arrived job — static key jKey, remaining
// work jRem (its full size at arrival) and sequence number jSeq, not yet
// slotted — precedes the running slot v, which drains at rate, at time now.
func (o *ordering) preempts(jKey, jRem float64, jSeq, v int, now, rate float64) bool {
	if o.kind == ordSRPT {
		remV := (o.s.cAt[v] - now) * rate
		if jRem != remV {
			return jRem < remV
		}
		return jSeq < o.s.seq[v]
	}
	if kv := o.keyOf(v); jKey != kv {
		return jKey < kv
	}
	return jSeq < o.s.seq[v]
}

// start puts slot sl on a machine at time t.
func (s *scratch) start(sl int, t, speed float64) {
	s.cAt[sl] = t + s.rem[sl]/speed
	s.byC.Push(sl)
	s.worst.Push(sl)
}

// hetNext returns the rank of the running job that completes first — the
// least cAt, the lower rank on ties — or -1 when no job runs. Under SRPT
// that is rank 0: the least remaining work on the fastest machine.
func (s *scratch) hetNext() int {
	if s.ord.kind == ordSRPT && len(s.rank) > 0 {
		return 0
	}
	q := -1
	best := math.Inf(1)
	for r, sl := range s.rank {
		if c := s.cAt[sl]; c < best {
			q, best = r, c
		}
	}
	return q
}

// hetSettle returns running slot sl's remaining work at now, the job
// having drained at rate since its cAt was stamped. A job within its
// completion tolerance completes at now instead (the reference engine's
// end-of-step check) and hetSettle reports false.
func (r *topmRun) hetSettle(sl int, rate, now float64) (float64, bool) {
	s := r.s
	rem := (s.cAt[sl] - now) * rate
	if rem <= s.tol[sl] {
		recordFinish(r.res, r.sum, r.obs, s.seq[sl], s.release[sl], now)
		s.freeSlot(sl)
		return 0, false
	}
	return rem, true
}

// hetMove moves running slot sl from rank from to rank to at now: between
// machines of different speeds it settles the job at the old speed and
// restamps cAt at the new one, reporting false if the job completed
// instead; between equally fast machines cAt stands.
func (r *topmRun) hetMove(sl, from, to int, now float64) bool {
	s := r.s
	rf, rt := s.rankRate[from], s.rankRate[to]
	if rf == rt { //rrlint:ignore floateq same-speed ranks read equal table entries; any other pair must be settled
		return true
	}
	rem, ok := r.hetSettle(sl, rf, now)
	if ok {
		s.cAt[sl] = now + rem/rt
	}
	return ok
}

// hetPromote fills free ranks with the best waiting jobs — each ranks
// after every running job, by the invariant — stamping each at its
// machine's rate.
func (s *scratch) hetPromote(m int, now float64) {
	for len(s.rank) < m && s.waiting.Len() > 0 {
		sl := s.waiting.Pop()
		s.cAt[sl] = now + s.rem[sl]/s.rankRate[len(s.rank)]
		s.rank = append(s.rank, sl)
	}
}

// hetComplete removes the job at rank q, which completed at now: the ranks
// below it move up one machine each and the best waiting job takes the
// last rank.
func (r *topmRun) hetComplete(q, m int, now float64) {
	s := r.s
	w := q
	for from := q + 1; from < len(s.rank); from++ {
		if sl := s.rank[from]; r.hetMove(sl, from, w, now) {
			s.rank[w] = sl
			w++
		}
	}
	s.rank = s.rank[:w]
	s.hetPromote(m, now)
}

// hetArrive admits a job at now: it takes the rank of the first running
// job it precedes, and that job and the ones below it move down one
// machine — the last into the waiting heap when all m machines are busy.
// A job that precedes no running job on full machines waits.
func (r *topmRun) hetArrive(j core.Job, seq int, key, tol float64, m int, now float64) {
	s := r.s
	pos := len(s.rank)
	for q, v := range s.rank {
		if s.ord.preempts(key, j.Size, seq, v, now, s.rankRate[q]) {
			pos = q
			break
		}
	}
	if pos == m {
		s.waiting.Push(s.allocSlot(j, seq, key, tol))
		return
	}
	if k := len(s.rank); k == m {
		// Preempt the worst running job: freeze its progress.
		v := s.rank[k-1]
		s.rank = s.rank[:k-1]
		if rem, ok := r.hetSettle(v, s.rankRate[k-1], now); ok {
			s.rem[v] = rem
			s.waiting.Push(v)
		}
	}
	// Restamp ranks pos.. one machine down, compacting out any job that
	// completes, then open rank pos for the arrival.
	w := pos
	for from := pos; from < len(s.rank); from++ {
		if sl := s.rank[from]; r.hetMove(sl, from, w+1, now) {
			s.rank[w] = sl
			w++
		}
	}
	s.rank = append(s.rank[:w], 0)
	copy(s.rank[pos+1:], s.rank[pos:w])
	sl := s.allocSlot(j, seq, key, tol)
	s.cAt[sl] = now + j.Size/s.rankRate[pos]
	s.rank[pos] = sl
	s.hetPromote(m, now)
}

// keyMode selects how topmRun computes a job's static key at admission —
// an enum rather than a closure so runs stay allocation-free.
type keyMode uint8

const (
	keyNone     keyMode = iota // SRPT (rank by rem), FCFS (rank by seq)
	keySize                    // SJF
	keyPriority                // StaticPriority
)

// topmRun binds one top-m run's inputs and sink: the cursor supplying
// arrivals and exactly one of res (materialized) / sum (streaming).
type topmRun struct {
	cur  *core.Cursor
	res  *core.Result
	sum  *core.StreamResult
	s    *scratch
	obs  core.Observer
	km   keyMode
	prio *policy.StaticPriority
	het  bool // uniform machines: the rank array replaces byC and worst
}

// running returns the number of running jobs.
func (r *topmRun) running() int {
	if r.het {
		return len(r.s.rank)
	}
	return r.s.byC.Len()
}

func (r *topmRun) keyFor(j core.Job) float64 {
	switch r.km {
	case keySize:
		return j.Size
	case keyPriority:
		return r.prio.PriorityOf(j.ID)
	}
	return 0
}

// run executes the top-m event loop; prepareTopM must have been called.
// It is a bulk-advance loop: an outer sweep over arrivals with an inner
// drain popping the whole run of completions that precede the next
// arrival — the next-arrival time is hoisted per drain (the cursor cannot
// change while completions pop), and exact epoch emission is skipped
// entirely when every attached observer tolerates coarse epochs. Epoch
// rate sums are env.PrefixSpeed(running): the running jobs hold the
// fastest machines (on identical machines, float64(min(running, m))).
//
//rrlint:hotpath
func (r *topmRun) run(opts core.Options) error {
	cur, s := r.cur, r.s
	m, sp := opts.Machines, opts.Speed
	if !cur.More() {
		return cur.Err()
	}
	ord := &s.ord
	byC, worst, waiting := &s.byC, &s.worst, &s.waiting
	env := &s.env
	het := r.het
	obs := r.obs
	now := cur.Head().Release
	events := 0
	exact := obs != nil && !core.ObserverCoarseEpochsOK(obs)
	coarse := obs != nil && !exact
	batchStart := now
	batchAlive := 0

	for {
		hasA := cur.More()
		if err := cur.Err(); err != nil {
			return err
		}
		tA := math.Inf(1)
		if hasA {
			tA = cur.Head().Release
		}
		// Drain: completions with tC ≤ tA (a completion tied with an
		// arrival happens first), each promoting the best waiting job.
		for {
			var sl, q int
			if het {
				if q = s.hetNext(); q < 0 {
					break
				}
				sl = s.rank[q]
			} else {
				if byC.Len() == 0 {
					break
				}
				sl = byC.Min()
			}
			tC := s.cAt[sl]
			if !(tC <= tA) {
				break
			}
			events++
			if events&(ctxStride-1) == 0 {
				if err := core.Canceled(opts.Context, now, events); err != nil {
					return err
				}
			}
			if tC < now {
				tC = now // FP guard: time must not run backwards
			}
			if exact {
				run := r.running()
				emitEpoch(obs, &s.epoch, now, tC, run+waiting.Len(), env.PrefixSpeed(run))
			}
			now = tC
			recordFinish(r.res, r.sum, obs, s.seq[sl], s.release[sl], now)
			s.freeSlot(sl)
			if het {
				r.hetComplete(q, m, now)
			} else {
				byC.Pop()
				worst.Remove(sl)
				if waiting.Len() > 0 {
					s.start(waiting.Pop(), now, sp)
				}
			}
			if coarse && now == batchStart { //rrlint:ignore floateq instant identity: now and batchStart carry the same propagated bits, not approximations
				// A zero-length completion at the interval's opening instant:
				// refresh the snapshot so it reflects the alive set once the
				// opening instant has fully played out.
				batchAlive = r.running() + waiting.Len()
			}
		}
		if coarse && r.running() == 0 {
			// The machines just went idle: the busy interval that opened at
			// batchStart ends here. (No running job implies an empty
			// waiting set — a waiting job means every machine is busy.)
			emitCoarseEpoch(obs, &s.epoch, batchStart, now, batchAlive, env.PrefixSpeed(batchAlive))
		}
		if !hasA {
			break // the drain ran fully against tA = +Inf, waiting is empty too
		}
		// Arrival.
		events++
		if events&(ctxStride-1) == 0 {
			if err := core.Canceled(opts.Context, now, events); err != nil {
				return err
			}
		}
		aliveBefore := r.running() + waiting.Len()
		if exact {
			emitEpoch(obs, &s.epoch, now, tA, aliveBefore, env.PrefixSpeed(r.running()))
		}
		now = tA
		j, seq := cur.Advance()
		if obs != nil {
			obs.ObserveArrival(now, seq, j)
		}
		tolJ := core.CompletionTol(j.Size)
		if j.Size <= tolJ {
			recordFinish(r.res, r.sum, obs, seq, j.Release, now) // degenerate job: completes at admission (as core.Run)
			if coarse && aliveBefore == 0 {
				batchStart, batchAlive = now, 0
			}
			continue
		}
		kJ := r.keyFor(j)
		switch {
		case het:
			r.hetArrive(j, seq, kJ, tolJ, m, now)
		case byC.Len() < m:
			s.start(s.allocSlot(j, seq, kJ, tolJ), now, sp) // free machine (waiting is empty by the invariant)
		case ord.preempts(kJ, j.Size, seq, worst.Min(), now, sp):
			v := worst.Min()
			remV := (s.cAt[v] - now) * sp // freeze the victim's progress
			byC.Remove(v)
			worst.Remove(v)
			if remV <= s.tol[v] {
				// The victim was within its completion tolerance of
				// finishing: the reference engine completes it at this
				// boundary, so record it here rather than re-queueing.
				recordFinish(r.res, r.sum, obs, s.seq[v], s.release[v], now)
				s.freeSlot(v)
			} else {
				s.rem[v] = remV
				waiting.Push(v)
			}
			s.start(s.allocSlot(j, seq, kJ, tolJ), now, sp)
		default:
			waiting.Push(s.allocSlot(j, seq, kJ, tolJ))
		}
		if coarse {
			if aliveBefore == 0 {
				// This arrival opened a new busy interval; snapshot its state.
				batchStart, batchAlive = now, r.running()+waiting.Len()
			} else if now == batchStart { //rrlint:ignore floateq instant identity: now and batchStart carry the same propagated bits, not approximations
				// A simultaneous arrival at the opening instant joins the
				// snapshot (the exact stream's first positive-length epoch
				// already counts it).
				batchAlive = r.running() + waiting.Len()
			}
		}
	}
	if r.res != nil {
		r.res.Events = events
	} else {
		r.sum.Events = events
	}
	return cur.Err()
}
