package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"concordia/internal/sim"
)

// TestEventKindExhaustive fails loudly when a new EventKind is added without
// wiring every consumer: the String() name table, the name->kind parser, and
// the Chrome-trace disposition table. EvFaultInject/EvFaultRecover were added
// by hand in an earlier change; the next kind must not be forgettable.
func TestEventKindExhaustive(t *testing.T) {
	seen := map[string]EventKind{}
	for k := EventKind(0); k < numEventKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "EventKind(") {
			t.Errorf("kind %d has no String() name", k)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k

		// The CSV reader must round-trip every name.
		parsed, ok := ParseEventKind(name)
		if !ok || parsed != k {
			t.Errorf("ParseEventKind(%q) = %v,%v; want %v,true", name, parsed, ok, k)
		}

		// Every kind needs an explicit Chrome-trace fate: rendered or
		// deliberately suppressed. The zero value means someone forgot.
		switch disp := chromeDispositions[k]; disp {
		case dispRendered:
			if len(convertEvent(Event{Kind: k})) == 0 {
				t.Errorf("kind %s marked rendered but convertEvent emits nothing", name)
			}
		case dispSuppressed:
			if n := len(convertEvent(Event{Kind: k})); n != 0 {
				t.Errorf("kind %s marked suppressed but convertEvent emits %d records", name, n)
			}
		default:
			t.Errorf("kind %s has no chrometrace disposition; add it to chromeDispositions", name)
		}
	}
	if _, ok := ParseEventKind("no_such_kind"); ok {
		t.Error("ParseEventKind accepted an unknown name")
	}
}

// TestEventsCSVRoundTrip writes a representative event per kind (including
// negative sentinels and sub-microsecond timestamps) and reads it back:
// ReadEventsCSV must recover every field exactly.
func TestEventsCSVRoundTrip(t *testing.T) {
	tr := NewTracer(64)
	for k := EventKind(0); k < numEventKinds; k++ {
		tr.Emit(Event{
			At:   sim.Time(int64(k))*sim.Microsecond + 123, // whole-ns, not whole-us
			Dur:  sim.Time(int64(k)) * 7,
			A:    int64(k) * -3,
			B:    1 << 40,
			Core: int32(k) - 1,
			Cell: -1,
			Slot: int32(k),
			Task: int32(k) % 4,
			Kind: k,
		})
	}
	var buf bytes.Buffer
	if err := tr.WriteEventsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEventsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("round-trip returned %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d round-tripped as %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReadEventsCSVRejectsGarbage covers the error paths: wrong header,
// unknown kind, malformed numbers, short rows.
func TestReadEventsCSVRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"bad header":    "a,b,c,d,e,f,g,h,i\n",
		"unknown kind":  "time_us,kind,core,cell,slot,task,dur_us,a,b\n0,not_a_kind,0,0,0,0,0,0,0\n",
		"bad number":    "time_us,kind,core,cell,slot,task,dur_us,a,b\nxyz,dag_release,0,0,0,0,0,0,0\n",
		"short row":     "time_us,kind,core,cell,slot,task,dur_us,a,b\n0,dag_release,0\n",
		"empty input":   "",
		"bad int field": "time_us,kind,core,cell,slot,task,dur_us,a,b\n0,dag_release,zz,0,0,0,0,0,0\n",
	}
	for name, in := range cases {
		if _, err := ReadEventsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
