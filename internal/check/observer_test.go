package check

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/dual"
	"rrnorm/internal/fast"
	"rrnorm/internal/hunt"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/trace"
)

// TestObserversAgreeWithSegments is the streaming-pipeline differential
// test: over the same 1200-seed corpus as TestEnginesAgreeBulk, the
// observer-derived quantities — ℓk norms of flow (StreamNorm), overloaded
// time |T_o| and busy-period count (TimelineObserver) — must agree at 1e-6
// with the reference engine's ground truth (ℓk norms of its flows, and a
// TimelineObserver fed its per-job epochs), on both engines. The fast leg
// is a cross-engine check of the aggregate epochs the fast paths emit.
func TestObserversAgreeWithSegments(t *testing.T) {
	const seeds = 1200
	const tol = 1e-6
	ks := []int{1, 2, 3}
	agreeAt := func(a, b float64) bool {
		return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
	}
	comparisons := 0
	for seed := uint64(0); seed < seeds; seed++ {
		in := RandomInstance(seed)
		opts := RandomOptions(seed)
		pols := Policies(seed)
		p := pols[int(seed)%len(pols)] // one policy per seed bounds the cost

		// Reference-engine ground truth.
		refTL := stats.NewTimelineObserver(opts.Machines)
		ro := opts
		ro.Engine = core.EngineReference
		ro.Observer = refTL
		ref, err := core.Run(in, p, ro)
		if err != nil {
			t.Fatalf("seed %d: reference run: %v", seed, err)
		}
		wantNorm := make([]float64, len(ks))
		for i, k := range ks {
			wantNorm[i] = metrics.LkNorm(ref.Flow, k)
		}
		wantTS := refTL.Stats()

		for _, eng := range []core.EngineKind{core.EngineReference, core.EngineFast} {
			sn := metrics.NewStreamNorm(ks...)
			tl := stats.NewTimelineObserver(opts.Machines)
			oo := opts
			oo.Engine = eng
			oo.Observer = core.Multi(sn, tl)
			if _, err := fast.Run(in, p, oo); err != nil {
				t.Fatalf("seed %d %v: observed run: %v", seed, eng, err)
			}
			for i, k := range ks {
				if got := sn.Norm(k); !agreeAt(got, wantNorm[i]) {
					t.Fatalf("seed %d %s %v: L%d stream %.17g vs reference %.17g",
						seed, p.Name(), eng, k, got, wantNorm[i])
				}
			}
			got := tl.Stats()
			if !agreeAt(got.OverloadedTime, wantTS.OverloadedTime) {
				t.Fatalf("seed %d %s %v: |T_o| stream %.17g vs reference %.17g",
					seed, p.Name(), eng, got.OverloadedTime, wantTS.OverloadedTime)
			}
			if got.BusyPeriods != wantTS.BusyPeriods {
				t.Fatalf("seed %d %s %v: busy periods %d vs reference %d",
					seed, p.Name(), eng, got.BusyPeriods, wantTS.BusyPeriods)
			}
			comparisons++
		}
	}
	t.Logf("%d observer-vs-reference comparisons across %d seeds", comparisons, seeds)
}

// zeroLengthObservers returns a fresh instance of every in-tree observer,
// each with a check that fails the test on a NaN or ±Inf in its output.
func zeroLengthObservers(t *testing.T, m int, speed float64) []struct {
	name  string
	obs   core.Observer
	check func(t *testing.T)
} {
	rec := &core.SegmentRecorder{}
	gantt := core.NewGanttObserver(40)
	age := core.NewAgeMomentObserver(2, speed)
	tl := stats.NewTimelineObserver(m)
	wit, err := dual.NewWitnessObserver(2, 0.1, m)
	if err != nil {
		t.Fatal(err)
	}
	sn := metrics.NewStreamNorm(1, 2, 3)
	mon := hunt.NewStreamMonitor(m, speed)
	var buf bytes.Buffer
	tr := trace.NewObserver(&buf)
	return []struct {
		name  string
		obs   core.Observer
		check func(t *testing.T)
	}{
		{"SegmentRecorder", rec, func(t *testing.T) {
			if len(rec.Segments) == 0 {
				t.Error("SegmentRecorder: no segments")
			}
			for _, s := range rec.Segments {
				finiteValue(t, "SegmentRecorder", s)
			}
		}},
		{"GanttObserver", gantt, func(t *testing.T) { finiteText(t, "GanttObserver", gantt.Render()) }},
		{"AgeMomentObserver", age, func(t *testing.T) { finiteValue(t, "AgeMomentObserver", age.Value()) }},
		{"TimelineObserver", tl, func(t *testing.T) {
			finiteValue(t, "TimelineObserver.Stats", tl.Stats())
			finiteValue(t, "TimelineObserver.OverloadFraction", tl.OverloadFraction())
		}},
		{"WitnessObserver", wit, func(t *testing.T) {
			cert, err := wit.Certificate()
			if err != nil {
				t.Fatalf("WitnessObserver: %v", err)
			}
			finiteValue(t, "WitnessObserver", *cert)
			finiteText(t, "WitnessObserver", cert.String())
		}},
		{"StreamNorm", sn, func(t *testing.T) {
			finiteValue(t, "StreamNorm", []float64{sn.Norm(1), sn.Norm(2), sn.Norm(3), sn.MaxFlow()})
		}},
		{"StreamMonitor", mon, func(t *testing.T) {
			for _, a := range mon.Anomalies() {
				finiteText(t, "StreamMonitor", a.Msg)
			}
		}},
		{"trace.Observer", tr, func(t *testing.T) {
			if err := tr.Flush(); err != nil {
				t.Fatalf("trace.Observer: %v", err)
			}
			finiteText(t, "trace.Observer", buf.String())
		}},
	}
}

// finiteValue fails the test if v — a float64, or a struct or slice
// holding them — contains a NaN or ±Inf.
func finiteValue(t *testing.T, label string, v any) {
	t.Helper()
	var walk func(path string, rv reflect.Value)
	walk = func(path string, rv reflect.Value) {
		switch rv.Kind() {
		case reflect.Float64:
			if f := rv.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
				t.Errorf("%s%s = %v", label, path, f)
			}
		case reflect.Struct:
			for i := 0; i < rv.NumField(); i++ {
				walk(path+"."+rv.Type().Field(i).Name, rv.Field(i))
			}
		case reflect.Slice:
			for i := 0; i < rv.Len(); i++ {
				walk(path+"["+itoa(i)+"]", rv.Index(i))
			}
		}
	}
	walk("", reflect.ValueOf(v))
}

// finiteText fails the test if rendered output spells a NaN or ±Inf.
func finiteText(t *testing.T, label, s string) {
	t.Helper()
	if strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Errorf("%s output has a NaN or Inf:\n%s", label, s)
	}
}

// TestObserversZeroLengthEpochs runs the single-instant instance — releases
// at 1e16 with sub-resolution sizes, where float64 time cannot advance and
// the reference engine emits End == Start epochs — through every in-tree
// observer, one at a time and all together under Multi. No observer may
// panic or report a NaN or ±Inf.
func TestObserversZeroLengthEpochs(t *testing.T) {
	const big = 1e16
	in := core.NewInstance([]core.Job{
		{ID: 1, Release: big, Size: 1e-13},
		{ID: 2, Release: big, Size: 1e-13},
	})
	opts := core.Options{Machines: 1, Speed: 1}
	var zero zeroEpochs
	o := opts
	o.Observer = &zero
	if _, err := core.Run(in, policy.NewRR(), o); err != nil {
		t.Fatal(err)
	}
	if zero.n == 0 {
		t.Fatal("the instance no longer produces a zero-length epoch")
	}
	for _, ob := range zeroLengthObservers(t, opts.Machines, opts.Speed) {
		o := opts
		o.Observer = ob.obs
		if _, err := core.Run(in, policy.NewRR(), o); err != nil {
			t.Fatalf("%s: %v", ob.name, err)
		}
		ob.check(t)
	}
	all := zeroLengthObservers(t, opts.Machines, opts.Speed)
	var obs []core.Observer
	for _, ob := range all {
		obs = append(obs, ob.obs)
	}
	o = opts
	o.Observer = core.Multi(obs...)
	if _, err := core.Run(in, policy.NewRR(), o); err != nil {
		t.Fatalf("Multi: %v", err)
	}
	for _, ob := range all {
		ob.check(t)
	}
}

// zeroEpochs counts the zero-length epochs of a run.
type zeroEpochs struct{ n int }

func (z *zeroEpochs) ObserveArrival(float64, int, core.Job)   {}
func (z *zeroEpochs) ObserveCompletion(float64, int, float64) {}
func (z *zeroEpochs) ObserveDone(*core.Result)                {}
func (z *zeroEpochs) ObserveEpoch(e *core.Epoch) {
	if e.End == e.Start {
		z.n++
	}
}
