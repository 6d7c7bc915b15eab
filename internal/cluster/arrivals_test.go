package cluster

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/wmm"
)

// TestArrivalLogReplayPlan: a fetch walks only its own records, in landing
// order, and takes them out of the replay plan, which yields the unfetched
// records on a dead node in landing order; Reset keeps the backing.
func TestArrivalLogReplayPlan(t *testing.T) {
	var l ArrivalLog[string]
	key := func(d string) wmm.Key { return wmm.Key{ReqID: "r", Fn: "f", Data: d} }
	val := dataflow.Value{Size: 1}
	l.Add(3, key("a"), val, "n1")
	l.Add(0, key("b"), val, "n2")
	l.Add(3, key("c"), val, "n2")
	l.Add(5, key("d"), val, "n1")
	l.Add(0, key("e"), val, "n1")

	var got string
	for i := l.Fetch(3); i >= 0; i = l.Next(i) {
		got += l.At(i).Key.Data
	}
	if got != "ac" {
		t.Fatalf("fetcher 3 walked %q, want \"ac\"", got)
	}
	if i := l.Fetch(7); i != -1 {
		t.Fatalf("a fetcher with no records walked from %d", i)
	}
	dead := func(n string) bool { return n == "n1" }
	got = ""
	for i := l.NextUnfetched(-1, dead); i >= 0; i = l.NextUnfetched(i, dead) {
		got += l.At(i).Key.Data
	}
	if got != "de" {
		t.Fatalf("replay plan %q, want \"de\" (a was fetched; b and c are not on n1)", got)
	}

	recs := &l.recs[0]
	l.Reset()
	if l.Len() != 0 || l.NextUnfetched(-1, dead) != -1 || l.Fetch(3) != -1 {
		t.Fatal("Reset left records behind")
	}
	l.Add(1, key("f"), val, "n1")
	if &l.recs[0] != recs || l.NextUnfetched(-1, dead) != 0 {
		t.Fatal("a reset log did not reuse its backing, or lost its fetch state")
	}
}

// BenchmarkSinkKeyFormat pins the allocation cost of deriving a Wait-Match
// Memory key from an item's addressing — paid once per item the engine ships
// through a sink, and once per item the simulation plane lands.
func BenchmarkSinkKeyFormat(b *testing.B) {
	it := dataflow.Item{
		From:   dataflow.InstanceKey{Fn: "resize", Idx: 7},
		Output: "frames",
		To:     dataflow.InstanceKey{Fn: "encode", Idx: 12},
		Input:  "chunks",
		Value:  dataflow.Value{Size: 64},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := SinkKey("req-123456", it)
		if k.Fn != "encode" {
			b.Fatal("bad key")
		}
	}
}
