// Command perfbench is rrnorm's end-to-end benchmark. One run sets up one
// workload from a seed, measures it for a fixed time, checks its outputs and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object with the result. README.md in this directory
// lists the workloads, the metrics, and which layer each metric belongs to.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced passes; --trace 1
// alternates untraced and traced passes and reports the per-layer metrics,
// writing the traced spans under .bench_build/perfbench/.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"rrnorm/internal/core"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// workDir holds the benchmark's temporary files and span dumps, relative to
// the directory the benchmark runs in (the repository root).
const workDir = ".bench_build/perfbench"

const (
	// Set-up runs at least minSetupReps times, and more, up to
	// maxSetupReps, while the repeats have taken less than setupBudget:
	// setup_s is the median, and a cheap set-up gets enough repeats for a
	// steady one.
	minSetupReps = 3
	maxSetupReps = 51
	setupBudget  = 2 * time.Second
	// minPasses is the fewest measured passes of each kind in a run, so
	// every reported median has at least three samples.
	minPasses = 3
	// anchorReps is how many times the host anchor runs.
	anchorReps = 5
	// anchorJobs sizes the host anchor: a reference-engine RR run.
	anchorJobs = 20_000
)

// load is one workload: a set of inputs, set up once from a seed and then
// run pass after pass; every pass does the same fixed amount of work.
type load interface {
	// prepare readies the next pass, untimed; tr is the tracer of a
	// traced pass and nil otherwise.
	prepare(tr *tracer) error
	// pass runs the work once. With tr nil it is untraced; otherwise it
	// records its spans under root.
	pass(tr *tracer, root int) (passOut, error)
	// check verifies the outputs of the latest pass. It runs untimed.
	check(out passOut) error
	// layers derives the per-layer metrics of one traced pass from the
	// spans under root, running any layer probes it needs (untimed). It
	// returns the metrics and the time, in ns, that the named layers
	// account for (the numerator of ladder_coverage).
	layers(tr *tracer, root int, out passOut) (map[string]float64, int64, error)
	// report adds the workload's own end-to-end figures, over the
	// untraced passes, to the human-readable output; wall is their median
	// wall-clock time in seconds.
	report(wall float64) []line
	close() error
}

// passOut is what one pass did: the counts every pass must repeat exactly.
type passOut struct {
	jobs   int64 // jobs simulated
	ops    int   // operations attempted: calls or requests
	failed int   // operations that failed
	events int64 // engine events summed over the pass's runs
}

// line is one human-readable metric line.
type line struct {
	name  string
	value float64
	unit  string
}

type workloadSpec struct {
	name string
	// concurrency is how many operations are in flight during a pass.
	concurrency int
	setup       func(seed uint64, dir string) (load, error)
}

var workloads = []workloadSpec{
	{"replay", 1, func(seed uint64, dir string) (load, error) { return newReplay(seed, dir, replaySize) }},
	{"simulate", 1, func(seed uint64, dir string) (load, error) { return newSimulate(seed, simulateSize) }},
	{"serve", serveClients, func(seed uint64, dir string) (load, error) { return newServe(seed, serveSize) }},
	{"certify", 1, func(seed uint64, dir string) (load, error) { return newCertify(seed, certifySize) }},
}

// endToEnd and perLayer name the metrics of the JSON result, with units, in
// the order of BENCHMARK.json.
var endToEnd = []line{
	{name: "setup_s", unit: "s"},
	{name: "cpu_s", unit: "s"},
	{name: "jobs_per_cpu_s", unit: "1/s"},
	{name: "alloc_mb", unit: "MB"},
	{name: "peak_rss_mb", unit: "MB"},
}

var perLayer = []line{
	{name: "trace.ndjson_ns_per_job", unit: "ns/job"},
	{name: "trace.csv_gz_ns_per_job", unit: "ns/job"},
	{name: "fast.stream_drain_ns_per_job", unit: "ns/job"},
	{name: "metrics.streamnorm_ns_per_job", unit: "ns/job"},
	{name: "core.startrun_ns_per_job", unit: "ns/job"},
	{name: "fast.rr_ns_per_job", unit: "ns/job"},
	{name: "fast.rr_hetero_ns_per_job", unit: "ns/job"},
	{name: "fast.srpt_ns_per_job", unit: "ns/job"},
	{name: "workload.stream_ns_per_job", unit: "ns/job"},
	{name: "queue.pairheap_ns_per_op", unit: "ns/op"},
	{name: "core.peak_alive", unit: "count"},
	{name: "fast.events", unit: "count"},
	{name: "workload.fromspec_ms", unit: "ms"},
	{name: "core.validate_ms", unit: "ms"},
	{name: "fast.runws_ms", unit: "ms"},
	{name: "metrics.summarize_ms", unit: "ms"},
	{name: "serve.encode_ms", unit: "ms"},
	{name: "batch.compare_ms", unit: "ms"},
	{name: "core.reference_ms", unit: "ms"},
	{name: "serve.handler_ms", unit: "ms"},
	{name: "serve.http_ms", unit: "ms"},
	{name: "serve.unattributed_ms", unit: "ms"},
	{name: "serve.hit_ratio", unit: "ratio"},
	{name: "serve.cache_dedups", unit: "count"},
	{name: "serve.rejected", unit: "count"},
	{name: "dual.witness_ms", unit: "ms"},
	{name: "dual.certificate_ms", unit: "ms"},
	{name: "lp.lower_bound_ms", unit: "ms"},
	{name: "ladder_coverage", unit: "ratio"},
	{name: "tracing_overhead_frac", unit: "ratio"},
	{name: "host.anchor_ms", unit: "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: replay, simulate, serve or certify")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 12, "how long to measure")
	traced := flag.Int("trace", 0, "1 runs traced passes and reports per-layer metrics")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --workload must be replay, simulate, serve or certify, and --seconds ≥ 1")
		os.Exit(2)
	}
	res, err := run(os.Stdout, spec, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it and returns the result; a failed
// output check gives a result with Correct false, and err is for runs that
// could not finish.
func run(out io.Writer, spec *workloadSpec, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	dir := filepath.Join(workDir, fmt.Sprintf("tmp-%s-%d", spec.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(out, "host: %s\n", hostLine())
	anchor, err := hostAnchor()
	if err != nil {
		return nil, fmt.Errorf("host anchor: %w", err)
	}
	fmt.Fprintf(out, "host.anchor_ms %.4f ms (reference RR, n=%d, median of %d)\n", anchor, anchorJobs, anchorReps)

	// Set-up and passes are timed in CPU time and scaled by calibration
	// kernel probes (calib.go). Set-up is scaled by the median of every
	// probe of the run: one before set-up, one after it, and those beside
	// the passes.
	cal := newCalibrator()
	setupCals := []float64{cal.probe()}

	var w load
	var setup, setupWall stats.Sample
	var spent time.Duration
	for setup.N() < minSetupReps || (setup.N() < maxSetupReps && spent < setupBudget) {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t := measure(func() { w, err = spec.setup(seed, dir) })
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		spent += time.Duration(t.wall * 1e9)
		setup.Add(t.cpu)
		setupWall.Add(t.wall)
	}
	defer w.close()
	setupCals = append(setupCals, cal.probe())
	fmt.Fprintf(out, "set-up: median %.6f s CPU, %.6f s wall, over %d reps; probe CPU %.3f ms before, %.3f ms after\n",
		setup.Quantile(0.5), setupWall.Quantile(0.5), setup.N(), setupCals[0]*1e3, setupCals[1]*1e3)

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(out, "CHECK FAILED: "+format+"\n", args...)
	}

	// The first pass warms caches and lazy set-up; it is checked, not timed.
	if err := w.prepare(nil); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	first, err := w.pass(nil, -1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	res.Attempted += first.ops
	res.Failed += first.failed
	if err := w.check(first); err != nil {
		fail("%s: %v", spec.name, err)
	}

	// Each pass is scaled by the mean of the probes just before and just
	// after it: cals[k] and cals[k+1] bracket pass k.
	cals := []float64{cal.probe()}
	var cpu, cpuScaled, wall, traceWall, alloc stats.Sample
	layerSamples := map[string]*stats.Sample{}
	var ladder, ladderTraced stats.Sample
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	deadline := time.Now().Add(seconds)
	for i := 0; wall.N() < minPasses || (traced && traceWall.N() < minPasses) || time.Now().Before(deadline); i++ {
		tracedPass := traced && i%2 == 1
		var ptr *tracer
		if tracedPass {
			ptr = tr
		}
		if err := w.prepare(ptr); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		root := ptr.begin("pass", -1)
		var o passOut
		t := measure(func() { o, err = w.pass(ptr, root) })
		ptr.end(root)
		runtime.ReadMemStats(&ms1)
		cals = append(cals, cal.probe())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		fmt.Fprintf(out, "pass %d traced=%v: %.6f s CPU, %.6f s wall; probe CPU %.3f ms before, %.3f ms after\n",
			i, tracedPass, t.cpu, t.wall, cals[i]*1e3, cals[i+1]*1e3)
		res.Attempted += o.ops
		res.Failed += o.failed
		// Equal events in traced and untraced passes also show that the
		// wrappers left the engines on their untraced paths.
		if o.jobs != first.jobs || o.events != first.events || o.ops != first.ops {
			fail("%s pass %d (traced=%v) did jobs=%d events=%d ops=%d, first pass jobs=%d events=%d ops=%d",
				spec.name, i, tracedPass, o.jobs, o.events, o.ops, first.jobs, first.events, first.ops)
		}
		if err := w.check(o); err != nil {
			fail("%s pass %d: %v", spec.name, i, err)
		}
		if !tracedPass {
			cpu.Add(t.cpu)
			cpuScaled.Add(t.cpu * refCalibCPU / ((cals[i] + cals[i+1]) / 2))
			wall.Add(t.wall)
			alloc.Add(float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20))
			continue
		}
		traceWall.Add(t.wall)
		m, ladderNs, err := w.layers(tr, root, o)
		if err != nil {
			fail("%s traced pass %d: %v", spec.name, i, err)
			continue
		}
		ladder.Add(float64(ladderNs) / 1e9)
		ladderTraced.Add(float64(ladderNs+clockCost(tr.snapshot(), root)) / 1e9 / (t.wall * float64(spec.concurrency)))
		for k, v := range m {
			if layerSamples[k] == nil {
				layerSamples[k] = &stats.Sample{}
			}
			layerSamples[k].Add(v)
		}
	}

	var probeCPU stats.Sample
	for _, c := range append(setupCals, cals...) {
		probeCPU.Add(c)
	}
	wallMed := wall.Quantile(0.5)
	fmt.Fprintf(out, "workload %s, seed %d: %d set-ups; %d untraced passes of %d operations, %d jobs each\n",
		spec.name, seed, setup.N(), wall.N(), first.ops, first.jobs)
	e2e := map[string]float64{
		"setup_s":        setup.Quantile(0.5) * refCalibCPU / probeCPU.Quantile(0.5),
		"cpu_s":          cpuScaled.Quantile(0.5),
		"jobs_per_cpu_s": float64(first.jobs) / cpuScaled.Quantile(0.5),
		"alloc_mb":       alloc.Quantile(0.5),
		"peak_rss_mb":    peakRSSMB(),
	}
	lines := linesOf(endToEnd, e2e)
	lines = append(lines,
		line{"setup_cpu_s_measured", setup.Quantile(0.5), "s"},
		line{"setup_wall_s", setupWall.Quantile(0.5), "s"},
		line{"cpu_s_measured", cpu.Quantile(0.5), "s"},
		line{"wall_s", wallMed, "s"},
		line{"jobs_per_s", float64(first.jobs) / wallMed, "1/s"},
		line{"probe_cpu_ms", probeCPU.Quantile(0.5) * 1e3, "ms"})
	lines = append(lines, w.report(wallMed)...)
	lines = append(lines, line{"error_rate", float64(res.Failed) / float64(res.Attempted), "ratio"})
	for _, l := range lines {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", l.name, l.value, l.unit)
	}
	fmt.Fprintf(out, "quartiles over %d passes: cpu_s %.6g %.6g %.6g; measured CPU %.6g %.6g %.6g; wall %.6g %.6g %.6g\n",
		wall.N(), cpuScaled.Quantile(0.25), cpuScaled.Quantile(0.5), cpuScaled.Quantile(0.75),
		cpu.Quantile(0.25), cpu.Quantile(0.5), cpu.Quantile(0.75),
		wall.Quantile(0.25), wallMed, wall.Quantile(0.75))
	if !traced {
		for _, l := range endToEnd {
			res.Metrics[l.name] = metricValue{e2e[l.name], l.unit}
		}
		return res, nil
	}

	layer := map[string]float64{
		"ladder_coverage":       ladder.Quantile(0.5) / (wallMed * float64(spec.concurrency)),
		"tracing_overhead_frac": traceWall.Quantile(0.5)/wallMed - 1,
		"host.anchor_ms":        anchor,
	}
	for k, s := range layerSamples {
		layer[k] = s.Quantile(0.5)
	}
	for _, l := range perLayer {
		res.Metrics[l.name] = metricValue{layer[l.name], l.unit}
	}
	fmt.Fprintf(out, "per-layer medians over %d traced passes (0 = layer not on this workload's path):\n", traceWall.N())
	fmt.Fprintf(out, "  %-32s %14.6g ratio (layers with the tracer's clock cost ÷ traced wall)\n", "ladder_coverage_traced", ladderTraced.Quantile(0.5))
	for _, l := range linesOf(perLayer, layer) {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", l.name, l.value, l.unit)
	}
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", spec.name, seed))
	if err := dumpSpans(path, tr.snapshot()); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return res, nil
}

func linesOf(names []line, values map[string]float64) []line {
	out := make([]line, len(names))
	for i, l := range names {
		out[i] = line{l.name, values[l.name], l.unit}
	}
	return out
}

func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := writeSpans(bw, spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostAnchor times a fixed reference-engine RR run and returns the median
// in ms, so a later run can tell a slower host from a slower program.
func hostAnchor() (float64, error) {
	in := workload.PoissonLoad(stats.NewRNG(20150625), anchorJobs, 1, 0.95, workload.ExpSizes{M: 1})
	var s stats.Sample
	for i := 0; i < anchorReps; i++ {
		p, err := policy.New("RR")
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := core.Run(in, p, core.Options{Machines: 1, Speed: 1}); err != nil {
			return 0, err
		}
		s.Add(float64(time.Since(t0).Nanoseconds()) / 1e6)
	}
	return s.Quantile(0.5), nil
}

func hostLine() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("go=%s goarch=%s cpu=%q nproc=%d gomaxprocs=%d commit=%s",
		runtime.Version(), runtime.GOARCH, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
