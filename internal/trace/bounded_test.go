package trace

import "testing"

func TestLogBoundedEviction(t *testing.T) {
	l := NewLogBounded(3)
	for i := 0; i < 5; i++ {
		l.Append(Event{Idx: i})
	}
	ev := l.Events()
	if len(ev) != 3 || ev[0].Idx != 2 || ev[1].Idx != 3 || ev[2].Idx != 4 {
		t.Fatalf("events %+v, want idx 2,3,4 in order", ev)
	}
}

func TestLogBoundedUnderfill(t *testing.T) {
	l := NewLogBounded(8)
	l.Append(Event{Idx: 1})
	l.Append(Event{Idx: 2})
	ev := l.Events()
	if len(ev) != 2 || ev[0].Idx != 1 || ev[1].Idx != 2 {
		t.Fatalf("events %+v, want idx 1,2", ev)
	}
}

func TestLogBoundedNonPositiveIsUnbounded(t *testing.T) {
	l := NewLogBounded(0)
	for i := 0; i < 100; i++ {
		l.Append(Event{Idx: i})
	}
	if ev := l.Events(); len(ev) != 100 || ev[0].Idx != 0 {
		t.Fatalf("kept %d events from idx %d, want all 100", len(ev), ev[0].Idx)
	}
}
