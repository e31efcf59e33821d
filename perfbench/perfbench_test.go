package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"rrnorm/internal/core"
	"rrnorm/internal/dual"
	"rrnorm/internal/metrics"
	"rrnorm/internal/stats"
	"rrnorm/internal/trace"
	"rrnorm/internal/workload"
)

// tinyLoads are the four workloads at sizes a test can afford.
func tinyLoads(t *testing.T) map[string]load {
	t.Helper()
	rp, err := newReplay(3, t.TempDir(), replaySizes{jobs: 3_000})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := newSimulate(3, simulateSizes{jobs: 2_000, streamJobs: 3_000})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := newServe(3, serveSizes{requests: 40, hitKeys: 4, hitJobs: 50, missJobs: 300, compareJobs: 60, replayJobs: 200, sample: 2})
	if err != nil {
		t.Fatal(err)
	}
	ce, err := newCertify(3, certifySizes{jobs1: 60, jobs2: 40, lbJobs: 8, lbCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]load{"replay": rp, "simulate": sim, "serve": sv, "certify": ce}
}

// TestWorkloadChecksPass runs every workload untraced and traced at tiny
// sizes; each pass's output checks must pass and both passes must do the
// same work.
func TestWorkloadChecksPass(t *testing.T) {
	for name, w := range tinyLoads(t) {
		t.Run(name, func(t *testing.T) {
			defer w.close()
			if err := w.prepare(nil); err != nil {
				t.Fatal(err)
			}
			first, err := w.pass(nil, -1)
			if err != nil {
				t.Fatal(err)
			}
			if first.ops == 0 || first.jobs == 0 || first.failed != 0 {
				t.Fatalf("first pass %+v: want operations and jobs, no failures", first)
			}
			if err := w.check(first); err != nil {
				t.Fatalf("untraced pass: %v", err)
			}
			tr := newTracer()
			if err := w.prepare(tr); err != nil {
				t.Fatal(err)
			}
			root := tr.begin("pass", -1)
			out, err := w.pass(tr, root)
			tr.end(root)
			if err != nil {
				t.Fatal(err)
			}
			if out != first {
				t.Fatalf("traced pass %+v, untraced %+v: the wrappers changed the work", out, first)
			}
			if err := w.check(out); err != nil {
				t.Fatalf("traced pass: %v", err)
			}
			m, ladder, err := w.layers(tr, root, out)
			if err != nil {
				t.Fatal(err)
			}
			if ladder <= 0 {
				t.Errorf("ladder time %d, want > 0", ladder)
			}
			for k := range m {
				if !knownLayer(k) {
					t.Errorf("layer metric %q is not in perLayer", k)
				}
			}
			corrupt[name](w)
			if err := w.check(out); err == nil {
				t.Error("check passed a corrupted output")
			}
		})
	}
}

// corrupt damages one output of the latest pass, which check must catch.
var corrupt = map[string]func(load){
	"replay":   func(w load) { w.(*replay).last[1].norms[2] *= 1 + 1e-15 },
	"simulate": func(w load) { w.(*simulate).lastStream.sum.Events++ },
	"serve": func(w load) {
		s := w.(*serveLoad)
		for i, r := range s.reqs {
			if r.class == classHit {
				s.replies[i].body = append([]byte(nil), s.replies[i].body[:len(s.replies[i].body)-1]...)
				return
			}
		}
	},
	"certify": func(w load) { w.(*certify).lastCerts[1].Lemma2OK = false },
}

func knownLayer(name string) bool {
	for _, l := range perLayer {
		if l.name == name {
			return true
		}
	}
	return false
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
//
//	pass [0,100]
//	├── drain [10,90]
//	│   ├── decode ×3, 30 in all (a fold)
//	│   └── norm ×3, 5 in all (a fold)
//	└── probe [92,97]
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "pass", Parent: -1, Start: 0, End: 100, Count: 1, Dur: 100},
		{ID: 1, Name: "drain", Parent: 0, Start: 10, End: 90, Count: 1, Dur: 80},
		{ID: 2, Name: "decode", Parent: 1, Start: 11, End: 80, Count: 3, Dur: 30},
		{ID: 3, Name: "norm", Parent: 1, Start: 12, End: 85, Count: 3, Dur: 5},
		{ID: 4, Name: "probe", Parent: 0, Start: 92, End: 97, Count: 1, Dur: 5},
		{ID: 5, Name: "other", Parent: -1, Start: 100, End: 110, Count: 1, Dur: 10},
	}
	self := selfTimes(spans)
	want := []int64{15, 45, 30, 5, 5, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	tot := layerTotals(spans, self, 0)
	wantTot := map[string]int64{"drain": 45, "decode": 30, "norm": 5, "probe": 5}
	if len(tot) != len(wantTot) {
		t.Errorf("layer totals %v, want %v", tot, wantTot)
	}
	for k, v := range wantTot {
		if tot[k] != v {
			t.Errorf("layer %s total %d, want %d", k, tot[k], v)
		}
	}
	// The layers under a root account for its whole duration, less its own
	// self time.
	if sum := sumValues(tot); sum != spans[0].Dur-self[0] {
		t.Errorf("layers sum to %d, want %d", sum, spans[0].Dur-self[0])
	}

	// With the tracer's clock cost on the folds (decode: 6 inside its
	// duration, 3 outside; norm: 1 and 2), the folds lose the inside part,
	// drain loses the outside part, and the root's self time is unchanged.
	spans[2].In, spans[2].Out = 6, 3
	spans[3].In, spans[3].Out = 1, 2
	self = selfTimes(spans)
	want = []int64{15, 40, 24, 4, 5, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("with clock cost: self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	if c := clockCost(spans, 0); c != 12 {
		t.Errorf("clock cost under the root = %d, want 12", c)
	}
	if sum := sumValues(layerTotals(spans, self, 0)) + clockCost(spans, 0); sum != spans[0].Dur-self[0] {
		t.Errorf("layers plus clock cost sum to %d, want %d", sum, spans[0].Dur-self[0])
	}
}

// TestNilTracer checks that an untraced run takes the program's own values:
// a nil tracer records nothing and the wrappers return what they wrap.
func TestNilTracer(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	tr.record("y", id, 0, 1)
	src := workload.Stream(stats.NewRNG(1), 10, 1, workload.ExpSizes{M: 1})
	wrapped, f := wrapSource(tr, src, "x", id)
	tr.flush(f)
	sn := metrics.NewStreamNorm(2)
	obs, to := wrapObserver(tr, sn, "y", id)
	tr.flush(to.fold())
	if id != -1 || wrapped != core.JobSource(src) || f != nil || obs != core.Observer(sn) || to != nil {
		t.Errorf("nil tracer: begin=%d, wrapped source %T, fold %v, observer %T, traced observer %v", id, wrapped, f, obs, to)
	}
}

// TestFoldClockCost checks that a flushed fold carries the clock cost of
// its intervals, measured when the tracer is made.
func TestFoldClockCost(t *testing.T) {
	tr := newTracer()
	if tr.inNs <= 0 || tr.outNs <= 0 || tr.inNs+tr.outNs > 1e4 {
		t.Fatalf("clock cost per interval: in %v ns, out %v ns", tr.inNs, tr.outNs)
	}
	f := fold{name: "x", parent: -1}
	for i := 0; i < 1000; i++ {
		s := tr.now()
		f.add(s, tr.now())
	}
	tr.flush(&f)
	sp := tr.snapshot()[0]
	if sp.In != int64(math.Round(1000*tr.inNs)) || sp.Out != int64(math.Round(1000*tr.outNs)) {
		t.Errorf("fold of 1000 intervals: In %d, Out %d; per interval in %v, out %v", sp.In, sp.Out, tr.inNs, tr.outNs)
	}
}

// TestCalibrator checks that a calibration probe takes CPU time.
func TestCalibrator(t *testing.T) {
	c := newCalibrator()
	if d := c.probe(); d <= 0 || d > 60 {
		t.Errorf("calibration probe took %v s of CPU", d)
	}
}

// TestTracerRecords checks that begin/end, record and fold produce the
// spans the arithmetic reads, and that the dump is valid JSON.
func TestTracerRecords(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pass", -1)
	f := fold{name: "decode", parent: root}
	for i := 0; i < 3; i++ {
		t0 := tr.now()
		time.Sleep(time.Millisecond)
		f.add(t0, tr.now())
	}
	tr.flush(&f)
	now := tr.now()
	tr.record("handler", root, now, now+1000)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 || spans[1].Count != 3 || spans[1].Dur < 3*int64(time.Millisecond) || spans[2].Dur != 1000 {
		t.Fatalf("spans %+v", spans)
	}
	if self := selfTimes(spans); self[0] != spans[0].Dur-spans[1].Dur-spans[1].Out-spans[2].Dur {
		t.Errorf("root self time %d", self[0])
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, spans); err != nil || !bytes.Contains(buf.Bytes(), []byte(`"name": "decode"`)) {
		t.Errorf("writeSpans: %v\n%s", err, buf.Bytes())
	}
}

// TestWrappersForwardInterfaces checks that a wrapped source or observer
// routes exactly as the unwrapped one does: the engines pick their path from
// core.Sized, CoarseEpochsOK and NeedsJobEpochs.
func TestWrappersForwardInterfaces(t *testing.T) {
	tr := newTracer()
	witness, err := dual.NewWitnessObserver(2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, obs := range []core.Observer{metrics.NewStreamNorm(1, 2, 3), witness, stats.NewTimelineObserver(1)} {
		wrapped, _ := wrapObserver(tr, obs, "x", -1)
		if core.ObserverCoarseEpochsOK(wrapped) != core.ObserverCoarseEpochsOK(obs) ||
			core.ObserverNeedsJobEpochs(wrapped) != core.ObserverNeedsJobEpochs(obs) {
			t.Errorf("%T: wrapped coarse=%v jobEpochs=%v, unwrapped coarse=%v jobEpochs=%v", obs,
				core.ObserverCoarseEpochsOK(wrapped), core.ObserverNeedsJobEpochs(wrapped),
				core.ObserverCoarseEpochsOK(obs), core.ObserverNeedsJobEpochs(obs))
		}
	}
	for _, src := range []core.JobSource{workload.Stream(stats.NewRNG(1), 10, 1, workload.ExpSizes{M: 1}), trace.NewDecoder(strings.NewReader(""), trace.DecodeOptions{})} {
		wrapped, _ := wrapSource(tr, src, "x", -1)
		_, sized := src.(core.Sized)
		if _, ok := wrapped.(core.Sized); ok != sized {
			t.Errorf("%T: wrapped Sized=%v, unwrapped %v", src, ok, sized)
		} else if sized && wrapped.(core.Sized).Len() != src.(core.Sized).Len() {
			t.Errorf("%T: wrapped Len %d, unwrapped %d", src, wrapped.(core.Sized).Len(), src.(core.Sized).Len())
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metrics the benchmark
// prints are exactly those BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		declared []struct{ Name, Unit string }
		printed  []line
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", c.name, len(c.declared), len(c.printed))
			continue
		}
		for i, d := range c.declared {
			if p := c.printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), printed %s (%s)", c.name, i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
}
