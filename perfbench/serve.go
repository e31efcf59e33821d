package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"rrnorm/internal/batch"
	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/polspec"
	"rrnorm/internal/serve"
	"rrnorm/internal/stats"
	"rrnorm/internal/trace"
	"rrnorm/internal/workload"
)

// The serve workload drives an in-process rrserve (serve.NewServer behind
// httptest on loopback) with a closed loop: serveClients clients, each
// sending its next request when the previous reply arrives, as rrserve's
// callers do. The request list is fixed in set-up and split between the
// clients by index. Each pass starts a fresh server and warms its hit keys
// untimed, so every pass sees the same hits and misses.

type serveSizes struct {
	requests    int // per pass
	hitKeys     int
	hitJobs     int
	missJobs    int
	compareJobs int
	replayJobs  int
	// sample is how many requests of each non-hit class a traced pass
	// rebuilds through public calls, and how many misses an untraced pass
	// recomputes to check its responses.
	sample int
}

var serveSize = serveSizes{requests: 400, hitKeys: 32, hitJobs: 2_000, missJobs: 20_000, compareJobs: 2_000, replayJobs: 5_000, sample: 8}

// serveClients is the closed loop's client count: one per CPU of the
// 2-vCPU host the benchmark was sized on.
const serveClients = 2

// The request mix, in percent of a pass's requests.
const (
	hitPct     = 40
	missPct    = 35
	comparePct = 15
	// the rest are replays
)

// Compares run at load 0.8: at 0.95 the reference policies' cost varies
// sevenfold between n=2000 instances, too much for a steady pass.
var comparePolicies = []string{"RR", "SRPT", "FCFS", "LAPS", "SETF", "MLFQ"}

// referencePolicies are the compare policies without a fast path.
var referencePolicies = []string{"LAPS", "SETF", "MLFQ"}

const (
	classHit = iota
	classMiss
	classCompare
	classReplay
)

var classNames = []string{"hit", "miss", "compare", "replay"}

type request struct {
	class int
	path  string
	body  []byte
	key   int                    // hit key, for hits
	sim   *serve.SimulateRequest // misses and hit keys
	cmp   *serve.CompareRequest
	jobs  int64 // jobs the server simulates for it
}

type reply struct {
	status  int
	cache   string
	body    []byte
	latency time.Duration
}

type serveLoad struct {
	size     serveSizes
	reqs     []request
	warm     []request // one simulate request per hit key
	warmBody [][]byte

	srv *serve.Server
	ts  *httptest.Server
	ws  *core.Workspace

	passes  int
	replies []reply
	lat     [4]stats.Sample // per class, untraced passes, ms
	all     stats.Sample
}

func newServe(seed uint64, size serveSizes) (*serveLoad, error) {
	s := &serveLoad{size: size, ws: core.NewWorkspace()}
	missSpec := fmt.Sprintf("poisson:n=%d,load=0.95,dist=exp", size.missJobs)
	seedOf := func(class, i int) uint64 { return seed*1_000_003 + uint64(class)*100_000 + uint64(i) }
	for k := 0; k < size.hitKeys; k++ {
		pol := []string{"RR", "SRPT"}[k%2]
		sim := &serve.SimulateRequest{Spec: fmt.Sprintf("poisson:n=%d,load=0.9,dist=exp", size.hitJobs), Seed: seedOf(classHit, k), Policy: pol}
		r, err := simRequest(classHit, sim, 0)
		if err != nil {
			return nil, err
		}
		r.key = k
		s.warm = append(s.warm, r)
	}
	hits := size.requests * hitPct / 100
	misses := size.requests * missPct / 100
	compares := size.requests * comparePct / 100
	replays := size.requests - hits - misses - compares
	for i := 0; i < hits; i++ {
		r := s.warm[i%size.hitKeys]
		s.reqs = append(s.reqs, r)
	}
	for i := 0; i < misses; i++ {
		sim := &serve.SimulateRequest{Seed: seedOf(classMiss, i)}
		switch i % 3 {
		case 0:
			sim.Spec, sim.Policy = missSpec, "RR"
		case 1:
			sim.Spec, sim.Policy, sim.Machines = missSpec+",m=4", "SRPT", 4
		default:
			sim.Spec, sim.Policy, sim.MachineSpeeds = missSpec+",m=4", "RR", []float64{1, 1, 2, 4}
		}
		r, err := simRequest(classMiss, sim, int64(size.missJobs))
		if err != nil {
			return nil, err
		}
		s.reqs = append(s.reqs, r)
	}
	for i := 0; i < compares; i++ {
		cmp := &serve.CompareRequest{Spec: fmt.Sprintf("poisson:n=%d,load=0.8,dist=exp", size.compareJobs), Seed: seedOf(classCompare, i), Policies: comparePolicies}
		b, err := json.Marshal(cmp)
		if err != nil {
			return nil, err
		}
		s.reqs = append(s.reqs, request{class: classCompare, path: "/v1/compare", body: b, cmp: cmp,
			jobs: int64(size.compareJobs * len(comparePolicies))})
	}
	// A few distinct replay bodies, rotated: replays without a digest are
	// never cached, so repeats cost the same as fresh bodies.
	bodies := make([][]byte, min(replays, 8))
	for i := range bodies {
		in := workload.PoissonLoad(stats.NewRNG(seedOf(classReplay, i)), size.replayJobs, 1, 0.95, workload.ExpSizes{M: 1})
		var buf bytes.Buffer
		if err := trace.Encode(&buf, in.Jobs, trace.FormatNDJSON); err != nil {
			return nil, err
		}
		bodies[i] = buf.Bytes()
	}
	for i := 0; i < replays; i++ {
		b := bodies[i%len(bodies)]
		s.reqs = append(s.reqs, request{class: classReplay, path: "/v1/replay?policy=RR", body: b, jobs: int64(size.replayJobs)})
	}
	rng := stats.NewRNG(seed)
	rng.Shuffle(len(s.reqs), func(i, j int) { s.reqs[i], s.reqs[j] = s.reqs[j], s.reqs[i] })
	return s, nil
}

func simRequest(class int, sim *serve.SimulateRequest, jobs int64) (request, error) {
	b, err := json.Marshal(sim)
	return request{class: class, path: "/v1/simulate", body: b, sim: sim, jobs: jobs, key: -1}, err
}

// prepare starts a fresh server and warms the hit keys.
func (s *serveLoad) prepare(tr *tracer) error {
	s.stop()
	s.srv = serve.NewServer(serve.Config{CacheEntries: 4 * s.size.requests})
	s.ts = httptest.NewServer(handlerSpans(tr, s.srv.Handler()))
	s.ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = serveClients
	s.warmBody = s.warmBody[:0]
	for _, r := range s.warm {
		rep, err := s.send(r, nil, -1)
		if err != nil {
			return err
		}
		if rep.status != http.StatusOK {
			return fmt.Errorf("warming hit key %d: status %d: %s", r.key, rep.status, rep.body)
		}
		s.warmBody = append(s.warmBody, rep.body)
	}
	return nil
}

func (s *serveLoad) stop() {
	if s.ts != nil {
		s.ts.Close()
		s.srv.Close()
		s.ts, s.srv = nil, nil
	}
}

// spanHeader carries the client's request span to the handler's.
const spanHeader = "X-Perfbench-Span"

// handlerSpans times the time spent inside the server's handler, as a
// child of the client's request span. With tr nil it returns h.
func handlerSpans(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := tr.now()
		h.ServeHTTP(w, r)
		t1 := tr.now()
		if parent, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			tr.record("serve.handler", parent, t0, t1)
		}
	})
}

func (s *serveLoad) send(r request, tr *tracer, root int) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+r.path, bytes.NewReader(r.body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := tr.begin("serve.request."+classNames[r.class], root)
	if id >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	t0 := time.Now()
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	tr.end(id)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body, latency: lat}, nil
}

func (s *serveLoad) pass(tr *tracer, root int) (passOut, error) {
	s.replies = make([]reply, len(s.reqs))
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(s.reqs); i += serveClients {
				rep, err := s.send(s.reqs[i], tr, root)
				if err != nil {
					errs[c] = err
					return
				}
				s.replies[i] = rep
			}
		}(c)
	}
	wg.Wait()
	var out passOut
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	for i, r := range s.reqs {
		rep := s.replies[i]
		out.ops++
		if rep.status != http.StatusOK {
			out.failed++
			continue
		}
		out.jobs += r.jobs
		if r.class == classMiss || r.class == classReplay {
			var ev struct {
				Events int64 `json:"events"`
			}
			if err := json.Unmarshal(rep.body, &ev); err != nil {
				return out, fmt.Errorf("request %d: %w", i, err)
			}
			out.events += ev.Events
		}
		if tr == nil {
			ms := float64(rep.latency.Nanoseconds()) / 1e6
			s.lat[r.class].Add(ms)
			s.all.Add(ms)
		}
	}
	s.passes++
	return out, nil
}

func (s *serveLoad) check(out passOut) error {
	if out.failed > 0 {
		for i, rep := range s.replies {
			if rep.status != http.StatusOK {
				return fmt.Errorf("request %d (%s): status %d: %s", i, classNames[s.reqs[i].class], rep.status, rep.body)
			}
		}
	}
	var hits, misses int64
	for i, r := range s.reqs {
		rep := s.replies[i]
		switch r.class {
		case classHit:
			hits++
			if rep.cache != "hit" || !bytes.Equal(rep.body, s.warmBody[r.key]) {
				return fmt.Errorf("request %d: hit key %d answered %q with a body that differs from its miss body", i, r.key, rep.cache)
			}
		case classMiss:
			misses++
			if rep.cache != "miss" {
				return fmt.Errorf("request %d: miss answered %q", i, rep.cache)
			}
		}
	}
	vars, err := s.vars()
	if err != nil {
		return err
	}
	if vars["cache_hits"] != hits || vars["cache_misses"] != misses+int64(len(s.warm)) || vars["cache_dedups"] != 0 || vars["errors"] != 0 {
		return fmt.Errorf("server counters %v, want %d hits, %d misses, no dedups or errors", vars, hits, misses+int64(len(s.warm)))
	}
	// Recompute a sample of the misses in-process; each pass takes the
	// next ones.
	var missIdx []int
	for i, r := range s.reqs {
		if r.class == classMiss {
			missIdx = append(missIdx, i)
		}
	}
	for k := 0; k < min(s.size.sample, len(missIdx)); k++ {
		j := missIdx[(s.passes*s.size.sample+k)%len(missIdx)]
		want, err := missLadder(*s.reqs[j].sim, s.ws, nil, -1)
		if err != nil {
			return err
		}
		if !bytes.Equal(s.replies[j].body, want) {
			return fmt.Errorf("request %d: response differs from the in-process recomputation:\n got %s\nwant %s", j, s.replies[j].body, want)
		}
	}
	return nil
}

// vars reads the server's cache and error counters.
func (s *serveLoad) vars() (map[string]int64, error) {
	vars := map[string]int64{}
	for _, name := range []string{"cache_hits", "cache_misses", "cache_dedups", "errors"} {
		v, err := strconv.ParseInt(s.srv.Vars().Get(name).String(), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("server var %s: %w", name, err)
		}
		vars[name] = v
	}
	return vars, nil
}

// missLadder rebuilds a /v1/simulate miss through the public calls the
// server makes, timing each layer under parent when tr is set, and returns
// the response body the server should have sent.
func missLadder(req serve.SimulateRequest, ws *core.Workspace, tr *tracer, parent int) ([]byte, error) {
	step := func(name string, f func() error) error {
		id := tr.begin(name, parent)
		err := f()
		tr.end(id)
		return err
	}
	var in *core.Instance
	var res *core.Result
	var resp serve.SimulateResponse
	var body []byte
	err := step("workload.fromspec", func() (err error) {
		in, err = workload.FromSpec(req.Spec, req.Seed)
		return err
	})
	if err == nil {
		err = step("core.validate", in.Validate)
	}
	if err == nil {
		err = step("fast.runws", func() error {
			p, err := polspec.New(req.Policy)
			if err != nil {
				return err
			}
			machines := max(req.Machines, len(req.MachineSpeeds), 1)
			res, err = fast.RunWS(in, p, core.Options{Machines: machines, Speed: 1, MachineModel: core.Machines{Speeds: req.MachineSpeeds}}, ws)
			return err
		})
	}
	if err == nil {
		err = step("metrics.summarize", func() error {
			sum := metrics.Summarize(res.Flow)
			resp = serve.SimulateResponse{
				Policy: res.Policy, Machines: res.Machines, Speed: res.Speed,
				MachineSpeeds: append([]float64(nil), res.MachineModel.Speeds...),
				Engine:        core.EngineAuto.String(), N: len(res.Jobs), Events: res.Events,
				Summary: serve.FlowSummary{MeanFlow: sum.MeanFlow, MaxFlow: sum.MaxFlow, Stddev: sum.Stddev,
					P50: sum.P50, P95: sum.P95, P99: sum.P99, Jain: sum.Jain},
			}
			for k := 1; k <= 3; k++ {
				resp.Norms = append(resp.Norms, serve.NormValue{K: k, Value: metrics.LkNorm(res.Flow, k)})
			}
			return nil
		})
	}
	if err == nil {
		err = step("serve.encode", func() (err error) {
			body, err = json.Marshal(&resp)
			return err
		})
	}
	return body, err
}

// compareLadder rebuilds a /v1/compare: generation, then batch.Run over
// the policies (the server's fan-out), whose callback summarizes each
// result and takes its ℓ1–ℓ3 norms, as the server's does.
func compareLadder(req *serve.CompareRequest, policies []string, tr *tracer, parent int, name string) error {
	in, err := workload.FromSpec(req.Spec, req.Seed)
	if err != nil {
		return err
	}
	pts := make([]batch.Point, len(policies))
	for i, name := range policies {
		p, err := polspec.New(name)
		if err != nil {
			return err
		}
		pts[i] = batch.Point{Instance: in, Policy: p, Options: core.Options{Machines: 1, Speed: 1}}
	}
	sums := make([]metrics.Summary, len(pts))
	norms := make([][3]float64, len(pts))
	id := tr.begin(name, parent)
	err = batch.Run(context.Background(), pts, 0, func(i int, res *core.Result) error {
		sums[i] = metrics.Summarize(res.Flow)
		for k := 1; k <= 3; k++ {
			norms[i][k-1] = metrics.LkNorm(res.Flow, k)
		}
		return nil
	})
	tr.end(id)
	return err
}

// replayLadder rebuilds a /v1/replay: decode, drain and norm fold.
func replayLadder(body []byte, ws *core.Workspace, tr *tracer, parent int) error {
	p, err := polspec.New("RR")
	if err != nil {
		return err
	}
	id := tr.begin("fast.stream_drain", parent)
	src, srcFold := wrapSource(tr, trace.NewDecoder(bytes.NewReader(body), trace.DecodeOptions{}), "trace.ndjson", id)
	obs, to := wrapObserver(tr, metrics.NewStreamNorm(1, 2, 3), "metrics.streamnorm", id)
	_, err = fast.RunStream(src, p, core.Options{Machines: 1, Speed: 1, Observer: obs}, ws)
	tr.end(id)
	tr.flush(srcFold)
	tr.flush(to.fold())
	return err
}

func (s *serveLoad) layers(tr *tracer, root int, out passOut) (map[string]float64, int64, error) {
	// Client latency and handler time of every request of the pass.
	spans := tr.snapshot()
	self := selfTimes(spans)
	var count [4]float64
	var handlerNs, httpNs float64
	for i, sp := range spans {
		if sp.Parent != root {
			continue
		}
		for c, name := range classNames {
			if sp.Name == "serve.request."+name {
				count[c]++
			}
		}
		httpNs += float64(self[i])
		handlerNs += float64(sp.Dur - self[i])
	}
	requests := float64(len(s.reqs))

	// Rebuild a sample of each non-hit class through public calls.
	probe := tr.begin("probe", -1)
	var sampled [4]float64
	for i, r := range s.reqs {
		if sampled[r.class] == float64(s.size.sample) {
			continue
		}
		var err error
		switch r.class {
		case classMiss:
			id := tr.begin("ladder.miss", probe)
			var body []byte
			body, err = missLadder(*r.sim, s.ws, tr, id)
			tr.end(id)
			if err == nil && !bytes.Equal(body, s.replies[i].body) {
				err = fmt.Errorf("request %d: response differs from the in-process recomputation", i)
			}
		case classCompare:
			id := tr.begin("ladder.compare", probe)
			err = compareLadder(r.cmp, comparePolicies, tr, id, "batch.compare")
			tr.end(id)
			if err == nil {
				err = compareLadder(r.cmp, referencePolicies, tr, -1, "core.reference")
			}
		case classReplay:
			id := tr.begin("ladder.replay", probe)
			err = replayLadder(r.body, s.ws, tr, id)
			tr.end(id)
		default:
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		sampled[r.class]++
	}
	tr.end(probe)

	spans = tr.snapshot()
	self = selfTimes(spans)
	tot := layerTotals(spans, self, probe)
	var reference float64
	for i, sp := range spans {
		if sp.Name == "core.reference" && i > probe {
			reference += float64(sp.Dur)
		}
	}
	// Mean time per sampled request of class c. The ladder spans' own self
	// time (compare generation, glue between steps) counts as
	// unattributed.
	per := func(ns float64, c int) float64 { return ns / max(sampled[c], 1) }
	missNs := per(float64(tot["workload.fromspec"]+tot["core.validate"]+tot["fast.runws"]+tot["metrics.summarize"]+tot["serve.encode"]), classMiss)
	compareNs := per(float64(tot["batch.compare"]), classCompare)
	replayNs := per(float64(tot["trace.ndjson"]+tot["fast.stream_drain"]+tot["metrics.streamnorm"]), classReplay)
	ladderNs := count[classMiss]*missNs + count[classCompare]*compareNs + count[classReplay]*replayNs

	vars, err := s.vars()
	if err != nil {
		return nil, 0, err
	}
	replayJobs := max(sampled[classReplay], 1) * float64(s.size.replayJobs)
	const ms = 1e6
	m := map[string]float64{
		"trace.ndjson_ns_per_job":       float64(tot["trace.ndjson"]) / replayJobs,
		"fast.stream_drain_ns_per_job":  float64(tot["fast.stream_drain"]) / replayJobs,
		"metrics.streamnorm_ns_per_job": float64(tot["metrics.streamnorm"]) / replayJobs,
		"fast.events":                   float64(out.events),
		"workload.fromspec_ms":          per(float64(tot["workload.fromspec"]), classMiss) / ms,
		"core.validate_ms":              per(float64(tot["core.validate"]), classMiss) / ms,
		"fast.runws_ms":                 per(float64(tot["fast.runws"]), classMiss) / ms,
		"metrics.summarize_ms":          per(float64(tot["metrics.summarize"]), classMiss) / ms,
		"serve.encode_ms":               per(float64(tot["serve.encode"]), classMiss) / ms,
		"batch.compare_ms":              compareNs / ms,
		"core.reference_ms":             per(reference, classCompare) / ms,
		"serve.handler_ms":              handlerNs / requests / ms,
		"serve.http_ms":                 httpNs / requests / ms,
		"serve.unattributed_ms":         (handlerNs - ladderNs) / requests / ms,
		"serve.hit_ratio":               float64(vars["cache_hits"]) / float64(vars["cache_hits"]+vars["cache_misses"]),
		"serve.cache_dedups":            float64(vars["cache_dedups"]),
		"serve.rejected":                float64(vars["errors"]),
	}
	return m, int64(httpNs + ladderNs), nil
}

func (s *serveLoad) report(wall float64) []line {
	out := []line{{"req_per_s", float64(len(s.reqs)) / wall, "1/s"}}
	out = append(out, line{"p50_ms", s.all.Quantile(0.5), "ms"})
	// p99 is reported only with at least ten samples beyond it.
	if s.all.N() >= 1000 {
		out = append(out, line{"p99_ms", s.all.Quantile(0.99), "ms"})
	}
	out = append(out, line{"latency_samples", float64(s.all.N()), "count"})
	for c, name := range classNames {
		out = append(out, line{name + "_p50_ms", s.lat[c].Quantile(0.5), "ms"})
	}
	return out
}

func (s *serveLoad) close() error {
	s.stop()
	return nil
}
