package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimestampOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.runAll()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.runAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		if e.Now() != 10 {
			t.Errorf("now=%v inside event at 10", e.Now())
		}
		e.After(5, func() {
			if e.Now() != 15 {
				t.Errorf("now=%v inside chained event", e.Now())
			}
		})
	})
	e.runAll()
	if e.Now() != 15 {
		t.Fatalf("final clock %v want 15", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.runAll()
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	if !e.Scheduled(ev) {
		t.Fatal("Scheduled() false for pending event")
	}
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if !e.Canceled(ev) {
		t.Fatal("Canceled() false after Cancel")
	}
	if e.Scheduled(ev) {
		t.Fatal("Scheduled() true after Cancel")
	}
	e.runAll()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelIdempotent(t *testing.T) {
	e := NewEngine()
	ev := e.At(10, func() {})
	if !e.Cancel(ev) {
		t.Fatal("first Cancel returned false")
	}
	if e.Cancel(ev) {
		t.Fatal("second Cancel returned true")
	}
	e.runAll()
}

func TestCancelZeroHandleNoop(t *testing.T) {
	e := NewEngine()
	var h EventHandle
	if h.Valid() {
		t.Fatal("zero handle reports Valid")
	}
	if e.Cancel(h) || e.Canceled(h) || e.Scheduled(h) {
		t.Fatal("zero handle not inert")
	}
}

// A handle must not be able to cancel a later event that recycled its slot.
func TestStaleHandleCannotCancelRecycledSlot(t *testing.T) {
	e := NewEngine()
	h1 := e.At(10, func() {})
	e.runAll() // fires, frees the slot
	fired := false
	h2 := e.At(20, func() { fired = true }) // recycles the slot
	if e.Cancel(h1) {
		t.Fatal("stale handle canceled a recycled slot")
	}
	if !e.Scheduled(h2) {
		t.Fatal("new event lost")
	}
	e.runAll()
	if !fired {
		t.Fatal("recycled-slot event did not fire")
	}
}

// Satellite: a cancel-heavy workload must not accumulate canceled entries —
// the engine compacts once they exceed half the queue, so the queue stays
// bounded by a small multiple of the live event count.
func TestCancelHeavyQueueBounded(t *testing.T) {
	e := NewEngine()
	const live = 100
	handles := make([]EventHandle, 0, live)
	maxPending := 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < live; i++ {
			handles = append(handles, e.At(Time(1_000_000+round), func() {}))
		}
		for _, h := range handles {
			e.Cancel(h)
		}
		handles = handles[:0]
		if p := e.pending(); p > maxPending {
			maxPending = p
		}
	}
	// 100k events scheduled and canceled, never fired. Without compaction
	// Pending would reach 100k; with it the queue stays O(live).
	if maxPending > 4*live {
		t.Fatalf("canceled events accumulated: max pending %d for %d live", maxPending, live)
	}
	if e.pending() > 2*live {
		t.Fatalf("final pending %d not compacted", e.pending())
	}
}

// Compaction must preserve ordering and FIFO among survivors.
func TestCompactionPreservesOrder(t *testing.T) {
	e := NewEngine()
	var keep []EventHandle
	var cancel []EventHandle
	var got []int
	for i := 0; i < 500; i++ {
		i := i
		h := e.At(Time(100+i/2), func() { got = append(got, i) })
		if i%2 == 0 {
			cancel = append(cancel, h)
		} else {
			keep = append(keep, h)
		}
	}
	for _, h := range cancel {
		e.Cancel(h) // triggers compaction partway through
	}
	e.runAll()
	if len(got) != len(keep) {
		t.Fatalf("fired %d events, want %d", len(got), len(keep))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("survivors out of order after compaction: %v", got)
		}
	}
}

func TestTypedEvents(t *testing.T) {
	e := NewEngine()
	var got [][2]int64
	k := e.RegisterKind(func(a, b int64) { got = append(got, [2]int64{a, b}) })
	e.AtKind(10, k, 1, 2)
	e.AfterKind(5, k, 3, 4)
	e.runAll()
	want := [][2]int64{{3, 4}, {1, 2}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("typed events got %v want %v", got, want)
	}
}

func TestTypedAndClosureEventsInterleaveFIFO(t *testing.T) {
	e := NewEngine()
	var got []int64
	k := e.RegisterKind(func(a, b int64) { got = append(got, a) })
	e.AtKind(10, k, 0, 0)
	e.At(10, func() { got = append(got, 1) })
	e.AtKind(10, k, 2, 0)
	e.runAll()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("interleave order %v", got)
	}
}

func TestAtKindUnregisteredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AtKind with unregistered kind did not panic")
		}
	}()
	NewEngine().AtKind(10, 7, 0, 0)
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.Run(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock %v want horizon 25", e.Now())
	}
	e.Run(100)
	if len(fired) != 4 {
		t.Fatalf("second run fired %v", fired)
	}
}

func TestRunAdvancesToHorizonWhenEmpty(t *testing.T) {
	e := NewEngine()
	e.Run(1000)
	if e.Now() != 1000 {
		t.Fatalf("clock %v want 1000", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(10, func() { count++; e.stop() })
	e.At(20, func() { count++ })
	e.runAll()
	if count != 1 {
		t.Fatalf("Stop did not halt run: count=%d", count)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	NewTicker(e, 0, 20*Microsecond, func(now Time) { ticks = append(ticks, now) })
	e.Run(100 * Microsecond)
	want := []Time{0, 20000, 40000, 60000, 80000, 100000}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("tick %d at %v want %v", i, ticks[i], want[i])
		}
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = NewTicker(e, 0, 10, func(Time) {
		count++
		if count == 3 {
			tk.stop()
		}
	})
	e.Run(1000)
	if count != 3 {
		t.Fatalf("ticker fired %d times after stop at 3", count)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-period ticker did not panic")
		}
	}()
	NewTicker(NewEngine(), 0, 0, func(Time) {})
}

func TestPendingAndFiredCounters(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	e.At(2, func() {})
	if e.pending() != 2 {
		t.Fatalf("pending %d want 2", e.pending())
	}
	e.runAll()
	if e.fired != 2 {
		t.Fatalf("fired %d want 2", e.fired)
	}
	if e.pending() != 0 {
		t.Fatalf("pending %d want 0 after run", e.pending())
	}
}

// Property: for any multiset of timestamps, events fire in sorted order.
func TestPropertyOrdering(t *testing.T) {
	err := quick.Check(func(raw []uint32) bool {
		e := NewEngine()
		var got []Time
		want := make([]Time, 0, len(raw))
		for _, r := range raw {
			at := Time(r % 1_000_000)
			want = append(want, at)
			at2 := at
			e.At(at2, func() { got = append(got, at2) })
		}
		e.runAll()
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: random interleavings of schedule/cancel fire exactly the
// surviving events, in (at, seq) order, under the 4-ary heap + compaction.
func TestPropertyCancelInterleaving(t *testing.T) {
	err := quick.Check(func(raw []uint32) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			ord int
		}
		var got []rec
		var want []rec
		var handles []EventHandle
		var wantIdx []int
		for i, r := range raw {
			at := Time(r % 1000)
			i := i
			handles = append(handles, e.At(at, func() {
				got = append(got, rec{e.Now(), i})
			}))
			wantIdx = append(wantIdx, i)
			want = append(want, rec{at, i})
			// Cancel an arbitrary earlier survivor based on the input bits.
			if r%3 == 0 && len(wantIdx) > 0 {
				victim := int(r/3) % len(wantIdx)
				e.Cancel(handles[wantIdx[victim]])
				want = append(want[:victim], want[victim+1:]...)
				wantIdx = append(wantIdx[:victim], wantIdx[victim+1:]...)
			}
		}
		e.runAll()
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// Tentpole gate: typed scheduling and dispatch allocate nothing once the
// queue and handle table have warmed up.
func TestTypedScheduleFireZeroAlloc(t *testing.T) {
	e := NewEngine()
	k := e.RegisterKind(func(a, b int64) {})
	// Warm capacity.
	for i := 0; i < 64; i++ {
		e.AfterKind(Time(i), k, 0, 0)
	}
	e.runAll()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterKind(10, k, 1, 2)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+fire allocates %v/run, want 0", allocs)
	}
}

func TestScheduleCancelZeroAlloc(t *testing.T) {
	e := NewEngine()
	k := e.RegisterKind(func(a, b int64) {})
	for i := 0; i < 64; i++ {
		e.Cancel(e.AfterKind(Time(i), k, 0, 0))
	}
	e.runAll()
	allocs := testing.AllocsPerRun(1000, func() {
		h := e.AfterKind(10, k, 0, 0)
		e.Cancel(h)
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocates %v/run, want 0", allocs)
	}
}

// A ticker's steady-state re-arm goes through the typed path: no allocs.
func TestTickerSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	NewTicker(e, 0, 10, func(Time) {})
	e.Run(1000) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		e.Run(e.Now() + 1000)
	})
	if allocs != 0 {
		t.Fatalf("ticker steady state allocates %v/run, want 0", allocs)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500:             "500ns",
		1500:            "1.500us",
		2 * Millisecond: "2.000ms",
		3 * Second:      "3.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q want %q", int64(in), got, want)
		}
	}
}

func TestFromUsFromMs(t *testing.T) {
	if FromUs(20) != 20*Microsecond {
		t.Fatal("FromUs(20)")
	}
	if FromMs(1.5) != 1500*Microsecond {
		t.Fatal("FromMs(1.5)")
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%100), func() {})
		if e.pending() > 1024 {
			e.runAll()
		}
	}
	e.runAll()
}

func BenchmarkTypedScheduleAndFire(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	k := e.RegisterKind(func(a, b int64) {})
	for i := 0; i < b.N; i++ {
		e.AfterKind(Time(i%100), k, 0, 0)
		if e.pending() > 1024 {
			e.runAll()
		}
	}
	e.runAll()
}
