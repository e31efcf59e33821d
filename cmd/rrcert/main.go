// Command rrcert runs Round Robin on a workload and builds the paper's
// dual-fitting certificate (Sections 3.2–3.4): the α/β dual variables,
// Lemma 1/2 verdicts, dual-constraint feasibility, and the implied
// per-instance competitive-ratio bound.
//
// Examples:
//
//	rrcert -workload poisson:n=120,load=0.9 -k 2 -eps 0.05
//	rrcert -workload cascade:levels=8 -k 2 -speed 1        # watch it fail unaugmented
package main

import (
	"flag"
	"fmt"
	"os"

	"rrnorm/internal/core"
	"rrnorm/internal/dual"
	"rrnorm/internal/policy"
	"rrnorm/internal/workload"
)

func main() {
	var (
		spec    = flag.String("workload", "poisson:n=100,load=0.9,dist=exp,mean=1", "workload spec")
		m       = flag.Int("m", 1, "number of identical machines")
		k       = flag.Int("k", 2, "ℓk-norm exponent")
		eps     = flag.Float64("eps", 0.05, "ε ∈ (0, 0.1] (δ=ε, γ=k(k/ε)^k)")
		speed   = flag.Float64("speed", 0, "RR's speed; 0 = the theorem speed 2k(1+10ε)")
		seed    = flag.Uint64("seed", 1, "workload RNG seed")
		verbose = flag.Bool("v", false, "print the most binding per-job constraints")
		dump    = flag.String("dump", "", "write per-job α/slack/flow diagnostics as CSV to this path")
	)
	flag.Parse()

	in, err := workload.FromSpec(*spec, *seed)
	if err != nil {
		fatal(err)
	}
	s := *speed
	if s <= 0 {
		s = dual.Eta(*k, *eps)
	}
	fmt.Printf("workload: %s\nRR on m=%d machines at speed %.4g (theorem speed: %.4g)\n",
		workload.Describe(in), *m, s, dual.Eta(*k, *eps))
	// The certificate is built by a streaming witness observer during the
	// run — no Segment timeline is materialized, so memory stays O(n)
	// instead of O(events·n).
	w, err := dual.NewWitnessObserver(*k, *eps, *m)
	if err != nil {
		fatal(err)
	}
	res, err := core.Run(in, policy.NewRR(), core.Options{Machines: *m, Speed: s, Observer: w})
	if err != nil {
		fatal(err)
	}
	cert, err := w.Certificate()
	if err != nil {
		fatal(err)
	}
	fmt.Println(cert)
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(f, "job_id,alpha,slack,flow")
		for _, d := range cert.TopBinding(res, len(res.Jobs)) {
			fmt.Fprintf(f, "%d,%.9g,%.9g,%.9g\n", d.JobID, d.Alpha, d.Slack, d.Flow)
		}
		f.Close()
		fmt.Printf("diagnostics written to %s\n", *dump)
	}
	if *verbose {
		fmt.Println("\nmost binding jobs (slack ≤ 0 means the constraint holds):")
		for _, d := range cert.TopBinding(res, 8) {
			fmt.Printf("  job %-5d slack %+9.3g  α=%-10.4g F=%.4g\n", d.JobID, d.Slack, d.Alpha, d.Flow)
		}
	}
	if !cert.Feasible {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rrcert:", err)
	os.Exit(1)
}
