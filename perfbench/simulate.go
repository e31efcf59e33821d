package main

import (
	"fmt"
	"math"
	"time"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/queue"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// The simulate workload is library calls on instances built in set-up, run
// one after another on one reused core.Workspace: no decoding and no HTTP,
// so it is bound by the fast engine (StartRun, heaps, drains, observers).

type simulateSizes struct{ jobs, streamJobs int }

var simulateSize = simulateSizes{jobs: 1_000_000, streamJobs: 2_000_000}

const simulateLoad = 0.95

// heteroSpeeds is the machine model of the heterogeneous runs.
var heteroSpeeds = []float64{1, 1, 1, 1, 2, 2, 4, 4}

type simRun struct {
	layer  string // span name: fast.rr, fast.rr_hetero or fast.srpt
	policy string
	in     *core.Instance
	opts   core.Options
}

type simulate struct {
	seed uint64
	size simulateSizes
	runs []simRun
	ws   *core.Workspace

	lastNorms  [][3]float64 // ℓ1..ℓ3 of each materialized run in the latest pass
	lastFlowOK []error      // flow lower-bound check of each run in the first pass
	lastStream streamRun
	lastTO     []*tracedObserver

	// The first pass's outputs, once checked; later passes must repeat
	// them bit for bit.
	wantNorms  [][3]float64
	wantStream *streamRun
}

func newSimulate(seed uint64, size simulateSizes) (*simulate, error) {
	exp := workload.PoissonLoad(stats.NewRNG(seed), size.jobs, 1, simulateLoad, workload.ExpSizes{M: 1})
	// Load is relative to 8 unit-speed machines; the model's capacity is 16.
	par := workload.PoissonLoad(stats.NewRNG(seed+1), size.jobs, len(heteroSpeeds), simulateLoad, workload.ParetoSizes{Alpha: 1.5, Xm: 1})
	hetero := core.Options{Machines: len(heteroSpeeds), Speed: 1, MachineModel: core.Machines{Speeds: heteroSpeeds}}
	s := &simulate{seed: seed, size: size, ws: core.NewWorkspace(), runs: []simRun{
		{"fast.rr", "RR", exp, core.Options{Machines: 1, Speed: 1}},
		{"fast.rr_hetero", "RR", par, hetero},
		{"fast.srpt", "SRPT", par, hetero},
	}}
	for _, r := range s.runs {
		if err := r.in.Validate(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *simulate) stream() *workload.StreamSource {
	return workload.StreamLoad(stats.NewRNG(s.seed+2), s.size.streamJobs, 1, simulateLoad, workload.ExpSizes{M: 1})
}

func (s *simulate) pass(tr *tracer, root int) (passOut, error) {
	var out passOut
	s.lastNorms = s.lastNorms[:0]
	s.lastFlowOK = s.lastFlowOK[:0]
	s.lastTO = s.lastTO[:0]
	for _, r := range s.runs {
		p, err := policy.New(r.policy)
		if err != nil {
			return out, err
		}
		id := tr.begin(r.layer, root)
		res, err := fast.RunWS(r.in, p, r.opts, s.ws)
		tr.end(id)
		if err != nil {
			return out, fmt.Errorf("%s: %w", r.layer, err)
		}
		// Result is workspace-owned: reduce it before the next run.
		s.lastNorms = append(s.lastNorms, [3]float64{metrics.LkNorm(res.Flow, 1), metrics.LkNorm(res.Flow, 2), metrics.LkNorm(res.Flow, 3)})
		if s.wantStream == nil {
			s.lastFlowOK = append(s.lastFlowOK, flowsAtLeastSize(res, r.opts))
		}
		out.jobs += int64(len(res.Jobs))
		out.events += int64(res.Events)
		out.ops++
	}

	p, err := policy.New("RR")
	if err != nil {
		return out, err
	}
	sn := metrics.NewStreamNorm(1, 2, 3)
	id := tr.begin("fast.stream_drain", root)
	src, srcFold := wrapSource(tr, s.stream(), "workload.stream", id)
	obs, to := wrapObserver(tr, sn, "metrics.streamnorm", id)
	sum, err := fast.RunStream(src, p, core.Options{Machines: 1, Speed: 1, Observer: obs}, s.ws)
	tr.end(id)
	tr.flush(srcFold)
	tr.flush(to.fold())
	if to != nil {
		s.lastTO = append(s.lastTO, to)
	}
	if err != nil {
		return out, fmt.Errorf("stream: %w", err)
	}
	s.lastStream = streamRun{sum, [3]float64{sn.Norm(1), sn.Norm(2), sn.Norm(3)}}
	out.jobs += int64(sum.N)
	out.events += int64(sum.Events)
	out.ops++
	return out, nil
}

// flowsAtLeastSize checks that no job finished faster than its size allows
// on the fastest machine at the run's speed. The tolerance is the engines'
// completion threshold plus the rounding of the flow, a difference of two
// absolute times: a few ulps of the completion time.
func flowsAtLeastSize(res *core.Result, opts core.Options) error {
	fastest := 1.0
	for _, sp := range opts.MachineModel.Speeds {
		fastest = math.Max(fastest, sp)
	}
	rate := opts.Speed * fastest
	for i, j := range res.Jobs {
		c := res.Completion[i]
		tol := core.CompletionTol(j.Size)/rate + 4*(math.Nextafter(c, math.Inf(1))-c)
		if lo := j.Size / rate; res.Flow[i] < lo-tol {
			return fmt.Errorf("job %d: flow %v below size/(speed·fastest) = %v", j.ID, res.Flow[i], lo)
		}
	}
	return nil
}

// normsClose compares a materialized run's norms (a batch sum in job order)
// with a streaming run's (a running sum in completion order): the two sum
// the same flows in different orders, so they agree to rounding only.
func normsClose(a, b [3]float64) error {
	for k := range a {
		if math.Abs(a[k]-b[k]) > 1e-9*math.Abs(b[k]) {
			return fmt.Errorf("L%d: %v vs %v", k+1, a[k], b[k])
		}
	}
	return nil
}

func (s *simulate) check(passOut) error {
	if s.wantStream != nil {
		for i, r := range s.runs {
			if s.lastNorms[i] != s.wantNorms[i] {
				return fmt.Errorf("%s: norms %v, first pass %v", r.layer, s.lastNorms[i], s.wantNorms[i])
			}
		}
		return sameReplay(s.lastStream, *s.wantStream)
	}
	for i, r := range s.runs {
		if err := s.lastFlowOK[i]; err != nil {
			return fmt.Errorf("%s: %v", r.layer, err)
		}
		// The streaming run over the same instance must agree with the
		// materialized one.
		sn := metrics.NewStreamNorm(1, 2, 3)
		p, err := policy.New(r.policy)
		if err != nil {
			return err
		}
		opts := r.opts
		opts.Observer = sn
		sum, err := fast.RunStream(core.NewInstanceSource(r.in), p, opts, core.NewWorkspace())
		if err != nil {
			return fmt.Errorf("%s streamed: %w", r.layer, err)
		}
		if sum.N != r.in.N() || sum.Completed != sum.N {
			return fmt.Errorf("%s streamed: N=%d completed=%d, want %d", r.layer, sum.N, sum.Completed, r.in.N())
		}
		if err := normsClose(s.lastNorms[i], [3]float64{sn.Norm(1), sn.Norm(2), sn.Norm(3)}); err != nil {
			return fmt.Errorf("%s: materialized and streamed norms differ: %v", r.layer, err)
		}
	}
	if s.lastStream.sum.N != s.size.streamJobs || s.lastStream.sum.Completed != s.size.streamJobs {
		return fmt.Errorf("stream run: N=%d completed=%d, want %d", s.lastStream.sum.N, s.lastStream.sum.Completed, s.size.streamJobs)
	}
	s.wantNorms = append([][3]float64(nil), s.lastNorms...)
	want := s.lastStream
	s.wantStream = &want
	return nil
}

func (s *simulate) layers(tr *tracer, root int, out passOut) (map[string]float64, int64, error) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	tot := layerTotals(spans, self, root)
	// RunWS includes StartRun; a probe times StartRun alone on each
	// instance, and the ladder splits RunWS into the two.
	var startSum float64
	var startJobs int
	m := map[string]float64{}
	for _, r := range s.runs {
		ns, err := startRunNs(s.ws, r)
		if err != nil {
			return nil, 0, err
		}
		n := float64(r.in.N())
		m[r.layer+"_ns_per_job"] = float64(tot[r.layer])/n - ns/n
		startSum += ns
		startJobs += r.in.N()
	}
	sj := float64(s.size.streamJobs)
	m["core.startrun_ns_per_job"] = startSum / float64(startJobs)
	m["workload.stream_ns_per_job"] = float64(tot["workload.stream"]) / sj
	m["fast.stream_drain_ns_per_job"] = float64(tot["fast.stream_drain"]) / sj
	m["metrics.streamnorm_ns_per_job"] = float64(tot["metrics.streamnorm"]) / sj
	m["fast.events"] = float64(out.events)
	to := s.lastTO[0]
	m["core.peak_alive"] = float64(to.peak)
	m["queue.pairheap_ns_per_op"] = pairHeapNsPerOp(to.meanAlive())
	return m, sumValues(tot), nil
}

// startRunNs times Workspace.StartRun alone: the copy and validation every
// materialized run starts with.
func startRunNs(ws *core.Workspace, r simRun) (float64, error) {
	t0 := time.Now()
	_, err := ws.StartRun(r.in, r.policy, r.opts)
	return float64(time.Since(t0).Nanoseconds()), err
}

// pairHeapOps is the number of PopMin+Push pairs the heap probe times.
const pairHeapOps = 1 << 20

// pairHeapNsPerOp times queue.PairHeap churn — one PopMin and one Push per
// op — at a steady size equal to the measured mean alive count. It is a
// layer microbenchmark, kept out of the ladder sum.
func pairHeapNsPerOp(alive float64) float64 {
	n := max(1, int(math.Round(alive)))
	rng := stats.NewRNG(uint64(n))
	var h queue.PairHeap
	h.Reuse(n)
	for i := 0; i < n; i++ {
		h.Push(i, rng.ExpFloat64()*float64(n))
	}
	t0 := time.Now()
	for i := 0; i < pairHeapOps; i++ {
		id, key := h.PopMin()
		h.Push(id, key+rng.ExpFloat64()*float64(n))
	}
	return float64(time.Since(t0).Nanoseconds()) / pairHeapOps
}

func (s *simulate) prepare(*tracer) error { return nil }
func (s *simulate) report(float64) []line { return nil }
func (s *simulate) close() error          { return nil }
