// Package sim implements the discrete-event simulation kernel that the rest
// of the repository runs on.
//
// The paper's Concordia scheduler re-evaluates its core allocation every
// 20 µs of wall-clock time on an isolated CPU core. A managed runtime cannot
// honour that fidelity (garbage collection and goroutine scheduling introduce
// jitter well above 20 µs), so the reproduction replaces the physical clock
// with a virtual one: every actor — worker threads, the Concordia scheduler
// tick, traffic arrivals, OS wakeup latencies — is an event on a single
// deterministic timeline with nanosecond resolution. Events at the same
// instant fire in scheduling order (FIFO), which keeps runs reproducible.
//
// Memory discipline (DESIGN.md §5f): the pending-event queue is a flat
// slice-backed 4-ary heap of inline event structs ordered by (at, seq) — no
// per-event heap node, no boxing through container/heap's `any` interface.
// Hot callers schedule *typed* events (a registered EventKind plus two
// integer arguments) so the steady-state fast path allocates nothing; the
// closure form remains for cold paths and costs only the caller's closure.
// Cancellation is handle-based: an EventHandle carries a generation tag, so
// canceling never retains the event and a recycled handle slot cannot be
// canceled by a stale holder.
package sim

import (
	"fmt"
)

// Time is a point on the virtual timeline, in nanoseconds since the start of
// the simulation.
type Time int64

// Common durations, expressed in Time units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Us returns t as a floating-point number of microseconds.
func (t Time) Us() float64 { return float64(t) / float64(Microsecond) }

// Ms returns t as a floating-point number of milliseconds.
func (t Time) Ms() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Us())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Ms())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// FromUs converts a duration in microseconds to Time.
func FromUs(us float64) Time { return Time(us * float64(Microsecond)) }

// FromMs converts a duration in milliseconds to Time.
func FromMs(ms float64) Time { return Time(ms * float64(Millisecond)) }

// EventKind identifies a typed event handler registered with RegisterKind.
// The zero kind is reserved for closure events.
type EventKind int32

// EventHandle refers to a scheduled event. The zero handle is invalid. A
// handle stays valid until its event fires or is canceled; after that,
// Cancel and Canceled degrade to no-ops (the generation tag detects reuse of
// the underlying slot, so a stale handle can never cancel a later event).
type EventHandle struct {
	idx uint32 // handle-slot index + 1 (0 = zero handle, invalid)
	gen uint32
}

// Valid reports whether h was ever issued by an engine (it says nothing
// about whether the event already fired).
func (h EventHandle) Valid() bool { return h.idx != 0 }

// event is one inline entry of the flat queue. No pointers besides the
// optional closure: typed events are self-contained and allocation-free.
type event struct {
	at   Time
	seq  uint64
	slot uint32 // handle-slot index + 1
	kind EventKind
	a, b int64
	fn   func() // kind == 0 only
}

// less orders events by (at, seq): timestamp first, FIFO within an instant.
func (e *event) less(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// hslot tracks one handle generation. canceled marks a pending event for
// lazy deletion; the slot is freed (generation bumped) when the event is
// dropped at pop time, fires, or is removed by compaction.
type hslot struct {
	gen      uint32
	canceled bool
}

// Engine owns the virtual clock and the pending-event queue.
type Engine struct {
	now     Time
	seq     uint64
	queue   []event // 4-ary min-heap ordered by event.less
	stopped bool
	fired   uint64
	probe   func(at Time, pending int)

	slots     []hslot
	freeSlots []uint32
	canceled  int // canceled events still sitting in the queue

	// pc is the poolcheck sanitizer state (DESIGN.md §5g): empty struct and
	// no-op hooks unless built with -tags poolcheck.
	pc enginePC

	kinds []func(a, b int64)

	tickers    []*Ticker
	tickerKind EventKind
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// pending returns the number of events still queued (including canceled ones
// that have not been dropped or compacted away yet).
func (e *Engine) pending() int { return len(e.queue) }

// SetProbe installs an observer invoked before each dispatched event with
// the event's timestamp and the pending-queue depth (the dispatched event
// excluded). Telemetry attaches here to track event throughput and the
// queue-depth high-water mark; the probe must not schedule or cancel events.
// A nil probe (the default) costs one predictable branch per event.
func (e *Engine) SetProbe(probe func(at Time, pending int)) { e.probe = probe }

// RegisterKind registers a typed event handler and returns its kind. Typed
// events carry two int64 arguments instead of a closure, so scheduling them
// allocates nothing. Handlers are engine-scoped and permanent; register at
// setup time, not per event.
func (e *Engine) RegisterKind(fn func(a, b int64)) EventKind {
	if fn == nil {
		panic("sim: RegisterKind with nil handler")
	}
	e.kinds = append(e.kinds, fn)
	return EventKind(len(e.kinds))
}

// takeSlot pops a free handle slot (or grows the table) and returns its
// 1-based index.
func (e *Engine) takeSlot() uint32 {
	if n := len(e.freeSlots); n > 0 {
		s := e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		e.pc.take(s, e.slots[s-1].gen)
		return s
	}
	e.slots = append(e.slots, hslot{})
	s := uint32(len(e.slots))
	e.pc.take(s, 0)
	return s
}

// freeSlot retires a handle slot: the generation bump invalidates every
// outstanding handle before the slot re-enters the freelist.
func (e *Engine) freeSlot(s uint32) {
	sl := &e.slots[s-1]
	e.pc.free(s, sl.gen)
	sl.gen++
	sl.canceled = false
	e.freeSlots = append(e.freeSlots, s)
}

// schedule inserts an event and returns its handle.
func (e *Engine) schedule(t Time, kind EventKind, a, b int64, fn func()) EventHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	s := e.takeSlot()
	ev := event{at: t, seq: e.seq, slot: s, kind: kind, a: a, b: b, fn: fn}
	e.seq++
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
	return EventHandle{idx: s, gen: e.slots[s-1].gen}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently reorder causality. The closure form is for cold paths;
// hot paths should register an EventKind and use AtKind.
func (e *Engine) At(t Time, fn func()) EventHandle {
	if fn == nil {
		panic("sim: At with nil fn")
	}
	return e.schedule(t, 0, 0, 0, fn)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) EventHandle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AtKind schedules a typed event at absolute time t. The fast path: no
// closure, no per-event allocation.
func (e *Engine) AtKind(t Time, k EventKind, a, b int64) EventHandle {
	if k <= 0 || int(k) > len(e.kinds) {
		panic(fmt.Sprintf("sim: AtKind with unregistered kind %d", k))
	}
	return e.schedule(t, k, a, b, nil)
}

// AfterKind schedules a typed event d after the current time.
func (e *Engine) AfterKind(d Time, k EventKind, a, b int64) EventHandle {
	if d < 0 {
		d = 0
	}
	return e.AtKind(e.now+d, k, a, b)
}

// Cancel prevents a pending event from firing. It reports whether the event
// was still pending. Canceling an event that already fired, was already
// canceled, or a zero handle is a no-op. Canceled entries are removed
// lazily; when they exceed half the queue the engine compacts, so a
// cancel-heavy workload keeps the queue bounded by twice its live size.
func (e *Engine) Cancel(h EventHandle) bool {
	if h.idx == 0 {
		return false
	}
	sl := &e.slots[h.idx-1]
	if sl.gen != h.gen || sl.canceled {
		return false
	}
	sl.canceled = true
	e.canceled++
	if e.canceled*2 > len(e.queue) && len(e.queue) >= 64 {
		e.compact()
	}
	return true
}

// Canceled reports whether h refers to a pending event that was canceled
// (false once the entry has been dropped from the queue).
func (e *Engine) Canceled(h EventHandle) bool {
	if h.idx == 0 {
		return false
	}
	sl := &e.slots[h.idx-1]
	return sl.gen == h.gen && sl.canceled
}

// Scheduled reports whether h refers to an event still pending (not fired,
// not canceled).
func (e *Engine) Scheduled(h EventHandle) bool {
	if h.idx == 0 {
		return false
	}
	sl := &e.slots[h.idx-1]
	return sl.gen == h.gen && !sl.canceled
}

// compact removes every canceled entry in one pass and re-heapifies. O(n),
// amortized against the cancels that triggered it.
func (e *Engine) compact() {
	kept := e.queue[:0]
	for i := range e.queue {
		ev := &e.queue[i]
		if e.slots[ev.slot-1].canceled {
			e.freeSlot(ev.slot)
			continue
		}
		kept = append(kept, *ev)
	}
	// Zero the closure tail so dropped events do not retain their funcs.
	for i := len(kept); i < len(e.queue); i++ {
		e.queue[i].fn = nil
	}
	e.queue = kept
	e.canceled = 0
	for i := len(e.queue)/4 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// 4-ary heap primitives. A wider node halves the tree depth versus a binary
// heap: sift-down does more comparisons per level but far fewer cache-missing
// level hops — the mempool/ring discipline applied to the calendar queue.

func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.less(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].less(&q[best]) {
				best = c
			}
		}
		if !q[best].less(&ev) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = ev
}

// pop removes and returns the earliest pending event. The caller must have
// checked len(e.queue) > 0.
func (e *Engine) pop() event {
	q := e.queue
	root := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n].fn = nil // drop the closure reference from the dead tail slot
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return root
}

// stop halts Run before the next event is dispatched.
func (e *Engine) stop() { e.stopped = true }

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.pop()
		if e.slots[ev.slot-1].canceled {
			e.canceled--
			e.freeSlot(ev.slot)
			continue
		}
		e.freeSlot(ev.slot)
		e.now = ev.at
		e.fired++
		if e.probe != nil {
			e.probe(ev.at, len(e.queue))
		}
		if ev.kind == 0 {
			ev.fn()
		} else {
			e.kinds[ev.kind-1](ev.a, ev.b)
		}
		return true
	}
	return false
}

// Run executes events in timestamp order until the queue drains, Stop is
// called, or the next event lies strictly beyond until. The clock finishes at
// min(until, last event time); it advances to until if the queue drains
// early, so back-to-back Run calls observe a monotonic clock.
func (e *Engine) Run(until Time) {
	e.stopped = false
	for !e.stopped {
		// Peek for the horizon check before dispatching, dropping canceled
		// entries that have reached the root.
		for len(e.queue) > 0 && e.slots[e.queue[0].slot-1].canceled {
			ev := e.pop()
			e.canceled--
			e.freeSlot(ev.slot)
		}
		if len(e.queue) == 0 || e.queue[0].at > until {
			break
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// runAll executes every pending event regardless of horizon.
func (e *Engine) runAll() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Ticker repeatedly invokes fn every period, starting at start, until either
// stop is called or the engine stops scheduling. Re-arming goes through the
// typed-event path, so a steady ticker allocates nothing after creation.
type Ticker struct {
	eng     *Engine
	id      int64
	period  Time
	fn      func(Time)
	ev      EventHandle
	stopped bool
}

// NewTicker registers a periodic callback. fn receives the tick time. The
// Concordia scheduler's 20 µs re-evaluation loop is one of these.
func NewTicker(e *Engine, start, period Time, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	if e.tickerKind == 0 {
		e.tickerKind = e.RegisterKind(func(a, b int64) { e.tickers[a].tick() })
	}
	t := &Ticker{eng: e, id: int64(len(e.tickers)), period: period, fn: fn}
	e.tickers = append(e.tickers, t)
	t.ev = e.AtKind(start, e.tickerKind, t.id, 0)
	return t
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	now := t.eng.Now()
	t.fn(now)
	if !t.stopped {
		t.ev = t.eng.AtKind(now+t.period, t.eng.tickerKind, t.id, 0)
	}
}

// stop cancels future ticks.
func (t *Ticker) stop() {
	t.stopped = true
	t.eng.Cancel(t.ev)
}
