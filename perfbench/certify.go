package main

import (
	"fmt"

	"rrnorm"
	"rrnorm/internal/core"
	"rrnorm/internal/dual"
	"rrnorm/internal/metrics"
	"rrnorm/internal/workload"
)

// The certify workload is the paper's own check: the dual-fitting
// certificate of RR at the Theorem 1 speed (reference engine plus witness
// observer) and the LP lower bound on the optimum. Both grow superlinearly,
// so they get a workload of their own rather than drowning the fast engine
// or being drowned by it.

type certifyCase struct {
	in *core.Instance
	m  int
}

// The lower bound runs on many small instances: its LP has a fixed
// discretization, so its cost varies by instance far more than it grows with
// n, and only a sum over many instances costs the same from seed to seed.
type certifySizes struct{ jobs1, jobs2, lbJobs, lbCount int }

var certifySize = certifySizes{jobs1: 3_000, jobs2: 2_000, lbJobs: 20, lbCount: 16}

const (
	certifyK   = 2
	certifyEps = 0.1
)

type certify struct {
	cases []certifyCase
	lbIns []*core.Instance

	lastCerts []*dual.Certificate
	lastLB    []float64
	// wantPower holds the first pass's Σ F^k and dual objective per
	// certificate; every later pass, traced or not, must repeat them bit
	// for bit, which also shows the traced witness saw the same run.
	wantPower [][2]float64
}

func newCertify(seed uint64, size certifySizes) (*certify, error) {
	c := &certify{}
	for i, cs := range []struct{ n, m int }{{size.jobs1, 1}, {size.jobs2, 2}} {
		in, err := workload.FromSpec(fmt.Sprintf("poisson:n=%d,load=0.95,m=%d,dist=exp", cs.n, cs.m), seed*1_000+uint64(i))
		if err != nil {
			return nil, err
		}
		c.cases = append(c.cases, certifyCase{in, cs.m})
	}
	for i := 0; i < size.lbCount; i++ {
		in, err := workload.FromSpec(fmt.Sprintf("poisson:n=%d,load=0.8,dist=exp", size.lbJobs), seed*1_000+100+uint64(i))
		if err != nil {
			return nil, err
		}
		c.lbIns = append(c.lbIns, in)
	}
	return c, nil
}

func (c *certify) pass(tr *tracer, root int) (passOut, error) {
	var out passOut
	c.lastCerts = c.lastCerts[:0]
	for _, cs := range c.cases {
		cert, err := certifyOne(cs, tr, root)
		if err != nil {
			return out, fmt.Errorf("certify n=%d m=%d: %w", cs.in.N(), cs.m, err)
		}
		c.lastCerts = append(c.lastCerts, cert)
		out.jobs += int64(cs.in.N())
		out.ops++
	}
	c.lastLB = c.lastLB[:0]
	for _, in := range c.lbIns {
		id := tr.begin("lp.lower_bound", root)
		lb, err := rrnorm.LowerBound(in, 1, certifyK)
		tr.end(id)
		if err != nil {
			return out, fmt.Errorf("lower bound: %w", err)
		}
		c.lastLB = append(c.lastLB, lb)
		out.jobs += int64(in.N())
		out.ops++
	}
	return out, nil
}

// certifyOne is rrnorm.Certify, line for line, with its two layers timed
// when tr is set: the reference-engine RR run with the witness observer's
// callbacks folded into a child span, then the certificate assembly.
func certifyOne(cs certifyCase, tr *tracer, root int) (*dual.Certificate, error) {
	w, err := dual.NewWitnessObserver(certifyK, certifyEps, cs.m)
	if err != nil {
		return nil, err
	}
	id := tr.begin("core.reference", root)
	obs, to := wrapObserver(tr, w, "dual.witness", id)
	_, err = rrnorm.Simulate(cs.in, "RR", rrnorm.Options{Machines: cs.m, Speed: dual.Eta(certifyK, certifyEps), Observer: obs})
	tr.end(id)
	tr.flush(to.fold())
	if err != nil {
		return nil, err
	}
	id = tr.begin("dual.certificate", root)
	cert, err := w.Certificate()
	tr.end(id)
	return cert, err
}

func (c *certify) check(passOut) error {
	for i, cert := range c.lastCerts {
		if !cert.Feasible || !cert.Lemma1OK || !cert.Lemma2OK {
			return fmt.Errorf("case %d: certificate feasible=%v lemma1=%v lemma2=%v", i, cert.Feasible, cert.Lemma1OK, cert.Lemma2OK)
		}
	}
	if c.wantPower != nil {
		for i, cert := range c.lastCerts {
			if got := [2]float64{cert.RRPower, cert.DualObjective}; got != c.wantPower[i] {
				return fmt.Errorf("case %d: Σ F^k and dual objective %v, first pass %v", i, got, c.wantPower[i])
			}
		}
		return nil
	}
	// The first pass's certificates must equal rrnorm.Certify's.
	for i, cert := range c.lastCerts {
		want, err := rrnorm.Certify(c.cases[i].in, c.cases[i].m, certifyK, certifyEps)
		if err != nil {
			return err
		}
		got := [2]float64{cert.RRPower, cert.DualObjective}
		if got != [2]float64{want.RRPower, want.DualObjective} {
			return fmt.Errorf("case %d: Σ F^k and dual objective %v, rrnorm.Certify gives %v", i, got, [2]float64{want.RRPower, want.DualObjective})
		}
		c.wantPower = append(c.wantPower, got)
	}
	// A lower bound on the optimum may not exceed what unit-speed RR
	// achieves.
	for i, in := range c.lbIns {
		res, err := rrnorm.Simulate(in, "RR", rrnorm.Options{Machines: 1, Speed: 1})
		if err != nil {
			return err
		}
		if rr := metrics.KthPowerSum(res.Flow, certifyK); c.lastLB[i] > rr {
			return fmt.Errorf("instance %d: lower bound %v exceeds unit-speed RR's Σ F^%d = %v", i, c.lastLB[i], certifyK, rr)
		}
	}
	return nil
}

func (c *certify) layers(tr *tracer, root int, out passOut) (map[string]float64, int64, error) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	tot := layerTotals(spans, self, root)
	const ms = 1e6
	m := map[string]float64{
		"core.reference_ms":   float64(tot["core.reference"]) / ms,
		"dual.witness_ms":     float64(tot["dual.witness"]) / ms,
		"dual.certificate_ms": float64(tot["dual.certificate"]) / ms,
		"lp.lower_bound_ms":   float64(tot["lp.lower_bound"]) / ms,
	}
	return m, sumValues(tot), nil
}

func (c *certify) prepare(*tracer) error { return nil }
func (c *certify) report(float64) []line { return nil }
func (c *certify) close() error          { return nil }
