package cluster

import (
	"context"

	"repro/internal/dataflow"
	"repro/internal/transport"
	"repro/internal/wmm"
)

// This file is the node's data-plane surface: every sink interaction the
// engine performs goes through the node's transport.Transport, so a node
// whose Wait-Match Memory lives in another OS process (NewRemoteNode) is
// addressed exactly like one whose sink is a field away (NewNode). The
// wrappers pass context.Background(): transports own their per-operation
// deadline discipline, and the engine's failure handling keys off the typed
// wire errors they return, not off cancellation.

// Remote reports whether the node's sink lives in another process.
func (n *Node) Remote() bool { return n.remote }

// Inproc returns the in-process transport of a local node (nil for remote
// nodes) — the seam for the streaming-pipe path, which has no remote
// equivalent.
func (n *Node) Inproc() *transport.Inproc { return n.inproc }

// SinkShip lands one DLU shipment edge (batched multi-put).
func (n *Node) SinkShip(pace transport.Pacing, reqs []wmm.PutReq) error {
	return n.dp.ShipBatch(context.Background(), pace, reqs)
}

// SinkPut lands a single datum unpaced (local pipes, replay).
func (n *Node) SinkPut(key wmm.Key, v dataflow.Value, consumers int) error {
	return n.dp.Land(context.Background(), transport.Pacing{}, wmm.PutReq{Key: key, Val: v, Consumers: consumers})
}

// SinkGet consumes one datum from the node's sink.
func (n *Node) SinkGet(key wmm.Key) (dataflow.Value, bool, error) {
	return n.dp.Get(context.Background(), key)
}

// SinkRelease drops every sink entry of the request (teardown).
func (n *Node) SinkRelease(reqID string) error {
	return n.dp.Release(context.Background(), reqID)
}

// SinkClear wipes the node's sink.
func (n *Node) SinkClear() error {
	return n.dp.Clear(context.Background())
}

// SinkStats reads the sink's cumulative counters.
func (n *Node) SinkStats() (wmm.Stats, error) {
	return n.dp.Stats(context.Background())
}

// Ping probes the node's data plane (the liveness prober's primitive).
func (n *Node) Ping(ctx context.Context) error {
	return n.dp.Ping(ctx)
}
