package main

import (
	"time"

	"concordia/internal/predictor"
	"concordia/internal/ran"
	"concordia/internal/scheduler"
	"concordia/internal/sim"
)

// Call kinds aggregated per call (count plus total time) rather than one
// span each: they fire millions of times per run.
const (
	callPredict = iota
	callObserve
	callCores
	numCalls
)

// callStat aggregates one per-call boundary.
type callStat struct {
	n int64
	d time.Duration
}

// span is one phase of a traced workload. Parent is the index of the
// enclosing span (-1 for the root).
type span struct {
	name       string
	parent     int
	begin, end time.Duration
	// callsBegin and callsEnd snapshot the per-call totals, so the calls
	// made inside the span count as its children.
	callsBegin, callsEnd [numCalls]time.Duration
}

// tracer records phase spans with parent links and per-call aggregates at
// the layers' public boundaries. A nil *tracer is the untraced run: every
// method is a no-op and no wrapper is installed.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	calls [numCalls]callStat
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	s := span{name: name, parent: parent, begin: time.Since(t.t0)}
	for i := range t.calls {
		s.callsBegin[i] = t.calls[i].d
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	for i := range t.calls {
		s.callsEnd[i] = t.calls[i].d
	}
	t.open = t.open[:len(t.open)-1]
}

// phase runs fn inside a span named name.
func (t *tracer) phase(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

func (s *span) dur() time.Duration { return s.end - s.begin }

func (s *span) callTime() time.Duration {
	var d time.Duration
	for i := range s.callsEnd {
		d += s.callsEnd[i] - s.callsBegin[i]
	}
	return d
}

// selfTimes returns each span's self time: its duration minus the time its
// child spans and the per-call boundaries made directly inside it cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] = t.spans[i].dur() - t.spans[i].callTime()
	}
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			// The parent's snapshots already took away the child's calls;
			// take away the rest of the child's interval.
			self[p] -= t.spans[i].dur() - t.spans[i].callTime()
		}
	}
	return self
}

// selfTotal sums the self times of every span named name.
func (t *tracer) selfTotal(name string) time.Duration {
	var d time.Duration
	for i, s := range t.selfTimes() {
		if t.spans[i].name == name {
			d += s
		}
	}
	return d
}

func (t *tracer) timed(kind int, start time.Time) {
	c := &t.calls[kind]
	c.n++
	c.d += time.Since(start)
}

// timedPredictor decorates one task kind's predictor.Predictor.
type timedPredictor struct {
	inner predictor.Predictor
	t     *tracer
}

func (p timedPredictor) Predict(f ran.FeatureVector) sim.Time {
	start := time.Now()
	v := p.inner.Predict(f)
	p.t.timed(callPredict, start)
	return v
}

func (p timedPredictor) Observe(f ran.FeatureVector, runtime sim.Time) {
	start := time.Now()
	p.inner.Observe(f, runtime)
	p.t.timed(callObserve, start)
}

// timedScheduler decorates a scheduler.Scheduler; Name, Interval and
// CompensatesWakeups forward through the embedded policy.
type timedScheduler struct {
	scheduler.Scheduler
	t *tracer
}

func (s timedScheduler) Cores(st scheduler.PoolState) int {
	start := time.Now()
	n := s.Scheduler.Cores(st)
	s.t.timed(callCores, start)
	return n
}
