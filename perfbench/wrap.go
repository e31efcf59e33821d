package main

import "rrnorm/internal/core"

// The traced run wraps the program's job sources and observers to time the
// calls the engines make into them. A wrapper must leave the engine on the
// path it takes untraced, so it forwards exactly the optional interfaces the
// wrapped value has (core.Sized on sources; CoarseEpochsOK or NeedsJobEpochs
// on observers) and adds none. fast.events, equal between the traced and
// untraced runs, checks this.

// tracedSource folds the time of every Next call into a span.
type tracedSource struct {
	src core.JobSource
	t   *tracer
	f   fold
}

func (s *tracedSource) Next() (core.Job, bool, error) {
	t0 := s.t.now()
	j, ok, err := s.src.Next()
	s.f.add(t0, s.t.now())
	return j, ok, err
}

type sizedSource struct{ *tracedSource }

func (s sizedSource) Len() int { return s.src.(core.Sized).Len() }

// wrapSource returns src timed under a span named name; flush the returned
// fold once the run is over. With t nil it returns src and a nil fold.
func wrapSource(t *tracer, src core.JobSource, name string, parent int) (core.JobSource, *fold) {
	if t == nil {
		return src, nil
	}
	ts := &tracedSource{src: src, t: t, f: fold{name: name, parent: parent}}
	if _, ok := src.(core.Sized); ok {
		return sizedSource{ts}, &ts.f
	}
	return ts, &ts.f
}

// tracedObserver folds the time of every callback into a span, and counts
// the alive set: its peak, and its mean as seen by arriving jobs (for
// Poisson arrivals, the time average).
type tracedObserver struct {
	obs core.Observer
	t   *tracer
	f   fold

	alive, peak        int
	aliveSum, arrivals int64
}

func (o *tracedObserver) ObserveArrival(t float64, job int, j core.Job) {
	t0 := o.t.now()
	o.obs.ObserveArrival(t, job, j)
	o.f.add(t0, o.t.now())
	o.alive++
	o.peak = max(o.peak, o.alive)
	o.aliveSum += int64(o.alive)
	o.arrivals++
}

func (o *tracedObserver) ObserveEpoch(e *core.Epoch) {
	t0 := o.t.now()
	o.obs.ObserveEpoch(e)
	o.f.add(t0, o.t.now())
}

func (o *tracedObserver) ObserveCompletion(t float64, job int, flow float64) {
	t0 := o.t.now()
	o.obs.ObserveCompletion(t, job, flow)
	o.f.add(t0, o.t.now())
	o.alive--
}

func (o *tracedObserver) ObserveDone(res *core.Result) {
	t0 := o.t.now()
	o.obs.ObserveDone(res)
	o.f.add(t0, o.t.now())
}

// fold returns the observer's fold, for flushing; nil for a nil observer.
func (o *tracedObserver) fold() *fold {
	if o == nil {
		return nil
	}
	return &o.f
}

// meanAlive is the mean alive count seen by arriving jobs.
func (o *tracedObserver) meanAlive() float64 {
	if o.arrivals == 0 {
		return 0
	}
	return float64(o.aliveSum) / float64(o.arrivals)
}

type coarseObserver struct{ *tracedObserver }

func (o coarseObserver) CoarseEpochsOK() bool {
	return o.obs.(core.CoarseEpochObserver).CoarseEpochsOK()
}

type jobEpochObserver struct{ *tracedObserver }

func (o jobEpochObserver) NeedsJobEpochs() bool {
	return o.obs.(core.JobEpochObserver).NeedsJobEpochs()
}

// wrapObserver returns obs timed under a span named name, with the optional
// interface obs has. No observer of the program implements both. With t nil
// it returns obs and a nil *tracedObserver.
func wrapObserver(t *tracer, obs core.Observer, name string, parent int) (core.Observer, *tracedObserver) {
	if t == nil {
		return obs, nil
	}
	to := &tracedObserver{obs: obs, t: t, f: fold{name: name, parent: parent}}
	_, coarse := obs.(core.CoarseEpochObserver)
	_, jobEpochs := obs.(core.JobEpochObserver)
	switch {
	case coarse && jobEpochs:
		panic("perfbench: observer with both CoarseEpochsOK and NeedsJobEpochs")
	case coarse:
		return coarseObserver{to}, to
	case jobEpochs:
		return jobEpochObserver{to}, to
	}
	return to, to
}
