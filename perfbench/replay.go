package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/trace"
	"rrnorm/internal/workload"
)

// The replay workload is the `rrsim -replay` pipeline: trace bytes on disk
// → trace.MaybeGunzip → trace.NewDecoder → fast.RunStream(RR, m=1) with a
// StreamNorm{1,2,3}. One trace is replayed twice a pass, as plain NDJSON and
// as gzip CSV. Decoding dominates, so trace-layer changes show here and
// engine changes barely do.

type replaySizes struct{ jobs int }

var replaySize = replaySizes{jobs: 500_000}

// replayLoad is the trace's Poisson load on one unit-speed machine.
const replayLoad = 0.95

type replayFile struct {
	layer  string // span name of the decoder: trace.ndjson or trace.csv_gz
	path   string
	format trace.Format
	gzip   bool
}

// streamRun is the outcome of one streaming run: its aggregates and its
// ℓ1–ℓ3 norms.
type streamRun struct {
	sum   core.StreamResult
	norms [3]float64
}

type replay struct {
	seed  uint64
	size  replaySizes
	files []replayFile
	ws    *core.Workspace

	last   []streamRun       // outcome of the latest pass, per file
	lastTO []*tracedObserver // the latest traced pass's observers
	want   *streamRun        // the in-memory run every replay must equal
}

func (r *replay) source() *workload.StreamSource {
	return workload.StreamLoad(stats.NewRNG(r.seed), r.size.jobs, 1, replayLoad, workload.ExpSizes{M: 1})
}

// newReplay writes the two trace files, one goroutine each, from two
// generators with the same seed.
func newReplay(seed uint64, dir string, size replaySizes) (*replay, error) {
	r := &replay{seed: seed, size: size, ws: core.NewWorkspace(), files: []replayFile{
		{"trace.ndjson", filepath.Join(dir, "replay.ndjson"), trace.FormatNDJSON, false},
		{"trace.csv_gz", filepath.Join(dir, "replay.csv.gz"), trace.FormatCSV, true},
	}}
	errs := make([]error, len(r.files))
	var wg sync.WaitGroup
	for i, f := range r.files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = writeTrace(f, r.source())
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return r, nil
}

// writeTrace writes the jobs of src to f in chunks; the trace is never held
// in memory whole.
func writeTrace(f replayFile, src core.JobSource) error {
	file, err := os.Create(f.path)
	if err != nil {
		return err
	}
	defer file.Close()
	bw := bufio.NewWriterSize(file, 1<<16)
	var w io.Writer = bw
	var gz *gzip.Writer
	if f.gzip {
		if gz, err = gzip.NewWriterLevel(bw, gzip.BestSpeed); err != nil {
			return err
		}
		w = gz
	}
	const chunk = 8192
	jobs := make([]core.Job, 0, chunk)
	var buf bytes.Buffer
	for first := true; ; first = false {
		jobs = jobs[:0]
		for len(jobs) < chunk {
			j, ok, err := src.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			jobs = append(jobs, j)
		}
		if len(jobs) == 0 {
			break
		}
		buf.Reset()
		if err := trace.Encode(&buf, jobs, f.format); err != nil {
			return err
		}
		b := buf.Bytes()
		if f.format == trace.FormatCSV && !first { // Encode starts every chunk with the header row
			b = b[bytes.IndexByte(b, '\n')+1:]
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return file.Close()
}

func (r *replay) pass(tr *tracer, root int) (passOut, error) {
	var out passOut
	r.last = r.last[:0]
	r.lastTO = r.lastTO[:0]
	for _, f := range r.files {
		run, to, err := r.replayFile(f, tr, root)
		if err != nil {
			return out, fmt.Errorf("replay %s: %w", f.path, err)
		}
		r.last = append(r.last, run)
		if to != nil {
			r.lastTO = append(r.lastTO, to)
		}
		out.jobs += int64(run.sum.N)
		out.events += int64(run.sum.Events)
		out.ops++
	}
	return out, nil
}

func (r *replay) replayFile(f replayFile, tr *tracer, root int) (streamRun, *tracedObserver, error) {
	file, err := os.Open(f.path)
	if err != nil {
		return streamRun{}, nil, err
	}
	defer file.Close()
	rd, err := trace.MaybeGunzip(file)
	if err != nil {
		return streamRun{}, nil, err
	}
	p, err := policy.New("RR")
	if err != nil {
		return streamRun{}, nil, err
	}
	sn := metrics.NewStreamNorm(1, 2, 3)
	id := tr.begin("fast.stream_drain", root)
	src, srcFold := wrapSource(tr, trace.NewDecoder(rd, trace.DecodeOptions{Format: f.format}), f.layer, id)
	obs, to := wrapObserver(tr, sn, "metrics.streamnorm", id)
	sum, err := fast.RunStream(src, p, core.Options{Machines: 1, Speed: 1, Observer: obs}, r.ws)
	tr.end(id)
	tr.flush(srcFold)
	tr.flush(to.fold())
	if err != nil {
		return streamRun{}, nil, err
	}
	return streamRun{sum, [3]float64{sn.Norm(1), sn.Norm(2), sn.Norm(3)}}, to, nil
}

func (r *replay) check(passOut) error {
	if len(r.last) != 2 {
		return fmt.Errorf("replayed %d files, want 2", len(r.last))
	}
	if r.want == nil {
		want, err := r.inMemory()
		if err != nil {
			return err
		}
		r.want = &want
	}
	for i, got := range r.last {
		if err := sameReplay(got, *r.want); err != nil {
			return fmt.Errorf("%s replay differs from the in-memory run: %v", r.files[i].layer, err)
		}
	}
	return nil
}

// inMemory runs the replay's jobs with the decoder bypassed: the same jobs,
// straight from the generator the files were written from.
func (r *replay) inMemory() (streamRun, error) {
	sn := metrics.NewStreamNorm(1, 2, 3)
	p, err := policy.New("RR")
	if err != nil {
		return streamRun{}, err
	}
	sum, err := fast.RunStream(r.source(), p, core.Options{Machines: 1, Speed: 1, Observer: sn}, core.NewWorkspace())
	if err != nil {
		return streamRun{}, err
	}
	if sum.N != r.size.jobs || sum.Completed != sum.N {
		return streamRun{}, fmt.Errorf("in-memory run: N=%d completed=%d, want %d", sum.N, sum.Completed, r.size.jobs)
	}
	return streamRun{sum, [3]float64{sn.Norm(1), sn.Norm(2), sn.Norm(3)}}, nil
}

// sameReplay demands bit-identical aggregates and norms.
func sameReplay(got, want streamRun) error {
	g, w := got.sum, want.sum
	if g.N != w.N || g.Completed != w.Completed || g.Events != w.Events ||
		math.Float64bits(g.Makespan) != math.Float64bits(w.Makespan) ||
		math.Float64bits(g.MaxFlow) != math.Float64bits(w.MaxFlow) {
		return fmt.Errorf("got N=%d completed=%d events=%d makespan=%v maxflow=%v, want N=%d completed=%d events=%d makespan=%v maxflow=%v",
			g.N, g.Completed, g.Events, g.Makespan, g.MaxFlow, w.N, w.Completed, w.Events, w.Makespan, w.MaxFlow)
	}
	for k := range got.norms {
		if math.Float64bits(got.norms[k]) != math.Float64bits(want.norms[k]) {
			return fmt.Errorf("L%d = %v, want %v", k+1, got.norms[k], want.norms[k])
		}
	}
	return nil
}

func (r *replay) layers(tr *tracer, root int, out passOut) (map[string]float64, int64, error) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	tot := layerTotals(spans, self, root)
	n := float64(r.size.jobs)
	m := map[string]float64{
		"trace.ndjson_ns_per_job":       float64(tot["trace.ndjson"]) / n,
		"trace.csv_gz_ns_per_job":       float64(tot["trace.csv_gz"]) / n,
		"fast.stream_drain_ns_per_job":  float64(tot["fast.stream_drain"]) / (2 * n),
		"metrics.streamnorm_ns_per_job": float64(tot["metrics.streamnorm"]) / (2 * n),
		"fast.events":                   float64(out.events),
	}
	var peak int
	var meanAlive float64
	for _, to := range r.lastTO {
		peak = max(peak, to.peak)
		meanAlive = max(meanAlive, to.meanAlive())
	}
	m["core.peak_alive"] = float64(peak)
	m["queue.pairheap_ns_per_op"] = pairHeapNsPerOp(meanAlive)
	return m, sumValues(tot), nil
}

func (r *replay) prepare(*tracer) error { return nil }
func (r *replay) report(float64) []line { return nil }
func (r *replay) close() error {
	for _, f := range r.files {
		if err := os.Remove(f.path); err != nil {
			return err
		}
	}
	return nil
}

func sumValues(m map[string]int64) int64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return s
}
