package main

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"

	"rrnorm/internal/stats"
)

// span is one timed interval at a layer boundary, or the fold of many
// intervals that share a name and a parent (Count > 1). Per-job callbacks
// are folded so that a 10⁶-job run keeps a handful of spans, not millions.
//
// A fold's intervals are timed with two clock reads each, and those reads
// cost about as much as the shortest calls they time. In and Out are the
// tracer's estimate of that cost: In is the part that lands inside Dur, Out
// the part that lands in the parent's time. Self times leave both out.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
	Dur    int64  `json:"dur_ns"` // summed over Count intervals
	In     int64  `json:"overhead_in_ns,omitempty"`
	Out    int64  `json:"overhead_out_ns,omitempty"`
}

// tracer keeps spans in memory until the benchmark writes them out. Its
// methods are safe for concurrent use; hot per-job paths accumulate into a
// fold owned by one goroutine and hand it over once, at the end of a call.
//
// A nil *tracer is an untraced run: begin returns -1, and end, record and
// flush do nothing, so each workload has one code path.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// inNs and outNs are the clock cost of one folded interval, inside
	// and outside its measured duration (see span).
	inNs, outNs float64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.inNs, t.outNs = t.foldCost()
	return t
}

// foldCost times folds of empty intervals, as the wrappers take them, and
// returns the median cost per interval that lands inside the fold's
// duration and outside it.
func (t *tracer) foldCost() (in, out float64) {
	const n, reps = 1 << 16, 7
	var ins, outs stats.Sample
	for r := 0; r < reps; r++ {
		f := fold{}
		t0 := t.now()
		for i := 0; i < n; i++ {
			s := t.now()
			f.add(s, t.now())
		}
		total := float64(t.now() - t0)
		ins.Add(float64(f.dur) / n)
		outs.Add((total - float64(f.dur)) / n)
	}
	return ins.Quantile(0.5), outs.Quantile(0.5)
}

// now is the tracer's clock: nanoseconds since the tracer was made.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: start, Count: 1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = end
	s.Dur = end - s.Start
}

// record adds a closed span measured elsewhere (start and end on the
// tracer's clock).
func (t *tracer) record(name string, parent int, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Parent: parent, Start: start, End: end, Count: 1, Dur: end - start})
}

// fold accumulates many short intervals of one name under one parent.
type fold struct {
	name       string
	parent     int
	count, dur int64
	first      int64
	last       int64
}

func (f *fold) add(start, end int64) {
	if f.count == 0 {
		f.first = start
	}
	f.count++
	f.dur += end - start
	f.last = end
}

// flush stores the fold as one span (nothing when it saw no interval),
// with the clock cost of its intervals.
func (t *tracer) flush(f *fold) {
	if t == nil || f == nil || f.count == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := float64(f.count)
	t.spans = append(t.spans, span{ID: len(t.spans), Name: f.name, Parent: f.parent,
		Start: f.first, End: f.last, Count: f.count, Dur: f.dur,
		In: int64(math.Round(c * t.inNs)), Out: int64(math.Round(c * t.outNs))})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the summed
// durations of its direct children, with the tracer's own clock cost (In
// and Out) taken out of both. Spans are indexed by ID.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.Dur - s.In
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur + s.Out
		}
	}
	return self
}

// layerTotals sums self time and interval count per span name over the
// subtree rooted at root (root itself excluded).
func layerTotals(spans []span, self []int64, root int) map[string]int64 {
	out := map[string]int64{}
	for i, s := range spans {
		if i != root && descends(spans, i, root) {
			out[s.Name] += self[i]
		}
	}
	return out
}

// clockCost sums the tracer's clock cost (In and Out) over the subtree
// rooted at root: the time tracing added that self times leave out.
func clockCost(spans []span, root int) int64 {
	var c int64
	for i, s := range spans {
		if descends(spans, i, root) {
			c += s.In + s.Out
		}
	}
	return c
}

func descends(spans []span, i, root int) bool {
	for p := spans[i].Parent; p >= 0; p = spans[p].Parent {
		if p == root {
			return true
		}
	}
	return false
}

// writeSpans writes the spans as one JSON document.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Spans []span `json:"spans"`
	}{spans})
}
