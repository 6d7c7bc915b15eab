package cluster

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/wmm"
)

// This file is the arrival log both planes keep per request: what the data
// logic unit landed in which node's Wait-Match Memory, which instance fetches
// it and what a node death loses. A datum waits in the sink only until its
// instance fetches it, so a death loses only the unfetched data on the dead
// node, and the log, which keeps every landed datum with its key and value,
// is what recovery re-ships them from. Fetchers are numbered densely by the
// request's layout (dataflow.Tracker.Fetcher), so neither a record nor a
// fetch looks at another instance's records.

// SinkKey is the Wait-Match Memory key of an item, derived from its
// addressing: input@idx<-from[idx].output under the consumer's function, idx
// as the tracker routed it (BroadcastIdx for a datum every instance reads).
// Both planes land data under it; the arrival log keeps it for the fetch,
// replay and teardown, which never derive it again. Built by hand, one
// allocation for the key string.
func SinkKey(reqID string, it dataflow.Item) wmm.Key {
	var (
		b   strings.Builder
		buf [20]byte
	)
	b.Grow(len(it.Input) + len(it.From.Fn) + len(it.Output) + 20)
	b.WriteString(it.Input)
	b.WriteByte('@')
	b.Write(strconv.AppendInt(buf[:0], int64(it.To.Idx), 10))
	b.WriteString("<-")
	it.From.AppendTo(&b)
	b.WriteByte('.')
	b.WriteString(it.Output)
	return wmm.Key{
		ReqID: reqID,
		Fn:    it.To.Fn,
		Data:  b.String(),
	}
}

// Arrival is one datum a request landed in a node's sink: the key it is
// cached under, its value and the node whose sink holds it.
type Arrival[N comparable] struct {
	Key  wmm.Key
	Val  dataflow.Value
	Node N
	// fetcher is the number of the instance that fetches the datum; next is
	// the index plus one of that instance's next record (0: none).
	fetcher, next int32
}

// ArrivalLog is one request's arrivals in landing order, chained per
// fetcher. Its backing is kept by Reset for the next request.
type ArrivalLog[N comparable] struct {
	recs []Arrival[N]
	by   []fetcherChain // by fetcher number
}

// fetcherChain is one fetcher's records, first and last as index plus one
// (0: none), and whether the fetcher fetched them.
type fetcherChain struct {
	first, last int32
	fetched     bool
}

// chain is fetcher f's chain, the block grown to hold it.
func (l *ArrivalLog[N]) chain(f int) *fetcherChain {
	if n := len(l.by); f >= n {
		l.by = slices.Grow(l.by, f+1-n)[:f+1]
		clear(l.by[n:])
	}
	return &l.by[f]
}

// Add records a datum landed on node under key, for fetcher.
func (l *ArrivalLog[N]) Add(fetcher int, key wmm.Key, val dataflow.Value, node N) {
	c := l.chain(fetcher)
	l.recs = append(l.recs, Arrival[N]{Key: key, Val: val, Node: node, fetcher: int32(fetcher)})
	i := int32(len(l.recs))
	if c.last == 0 {
		c.first = i
	} else {
		l.recs[c.last-1].next = i
	}
	c.last = i
}

// Len is the number of records.
func (l *ArrivalLog[N]) Len() int { return len(l.recs) }

// At is record i, in landing order. The caller may move it (Node).
func (l *ArrivalLog[N]) At(i int) *Arrival[N] { return &l.recs[i] }

// Fetch marks fetcher's data fetched, so a node death no longer loses them,
// and returns the index of its first record, or -1; Next walks the rest.
func (l *ArrivalLog[N]) Fetch(fetcher int) int {
	c := l.chain(fetcher)
	c.fetched = true
	return int(c.first) - 1
}

// Next is the index of the record after i for the same fetcher, or -1.
func (l *ArrivalLog[N]) Next(i int) int { return int(l.recs[i].next) - 1 }

// NextUnfetched is the index of the first record after i (-1 starts) that
// its fetcher has not fetched and whose node on reports, or -1. With on
// naming dead nodes it walks the replay plan: the data a death lost, in
// landing order.
func (l *ArrivalLog[N]) NextUnfetched(i int, on func(N) bool) int {
	for i++; i < len(l.recs); i++ {
		if a := &l.recs[i]; !l.by[a.fetcher].fetched && on(a.Node) {
			return i
		}
	}
	return -1
}

// Reset empties the log for another request, dropping its payload and node
// references and keeping the backing.
func (l *ArrivalLog[N]) Reset() {
	clear(l.recs)
	l.recs, l.by = l.recs[:0], l.by[:0]
}
