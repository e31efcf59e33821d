package dual

import (
	"errors"
	"reflect"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// TestWitnessObserverNoSegments: the certificate must come out of a run
// that records no segment timeline (the point of the observer), and the
// needs-job-epochs capability must be declared so dispatchers route it to
// the reference engine.
func TestWitnessObserverNoSegments(t *testing.T) {
	in := workload.PoissonLoad(stats.NewRNG(5), 150, 1, 0.9, workload.ExpSizes{M: 1})
	w, err := NewWitnessObserver(2, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !core.ObserverNeedsJobEpochs(w) {
		t.Fatal("WitnessObserver must need job epochs")
	}
	res, err := core.Run(in, policy.NewRR(), core.Options{Machines: 1, Speed: Eta(2, 0.05), Observer: w})
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	// Sanity on the certificate itself: at the paper's speed the dual must
	// be feasible with positive objective fraction.
	if !c.Feasible || c.ObjectiveFraction <= 0 {
		t.Fatalf("certificate unsound: %s", c)
	}
	if len(c.JobSlack) != len(res.Jobs) {
		t.Fatalf("certificate covers %d jobs, run has %d", len(c.JobSlack), len(res.Jobs))
	}
	// Recording the timeline alongside must not change the certificate.
	w2, err := NewWitnessObserver(2, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rec core.SegmentRecorder
	if _, err := core.Run(in, policy.NewRR(), core.Options{Machines: 1, Speed: Eta(2, 0.05), Observer: core.Multi(w2, &rec)}); err != nil {
		t.Fatal(err)
	}
	want, err := w2.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Segments) == 0 || !reflect.DeepEqual(c, want) {
		t.Errorf("certificate differs when a SegmentRecorder is attached (%d segments)", len(rec.Segments))
	}
}

func TestWitnessObserverErrors(t *testing.T) {
	if _, err := NewWitnessObserver(0, 0.05, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewWitnessObserver(2, 0.5, 1); !errors.Is(err, ErrBadEps) {
		t.Fatalf("eps=0.5: %v", err)
	}
	if _, err := NewWitnessObserver(2, 0, 1); !errors.Is(err, ErrBadEps) {
		t.Fatalf("eps=0: %v", err)
	}
	if _, err := NewWitnessObserver(2, 0.05, 0); !errors.Is(err, core.ErrBadOptions) {
		t.Fatalf("m=0: %v", err)
	}
	w, err := NewWitnessObserver(2, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Certificate(); !errors.Is(err, ErrWitnessIncomplete) {
		t.Fatalf("certificate before run: %v", err)
	}
}

func TestWitnessObserverEmptyRun(t *testing.T) {
	w, err := NewWitnessObserver(2, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(core.NewInstance(nil), policy.NewRR(), core.Options{Machines: 1, Speed: 1, Observer: w}); err != nil {
		t.Fatal(err)
	}
	c, err := w.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Feasible || c.ViolatingJob != -1 {
		t.Fatalf("empty-run certificate: %+v", c)
	}
}
