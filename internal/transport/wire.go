package transport

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/wmm"
)

// FrameVersion is the protocol version stamped into every frame header.
// Bump it whenever any //wire:struct changes shape — the wiregate repolint
// analyzer enforces that the structs' fingerprint below matches the
// version, so a silent wire change cannot ship.
const FrameVersion = 3

// wireVersions pins the fingerprint of the //wire:struct set at each frame
// version. The wiregate analyzer recomputes the fingerprint from the struct
// declarations and fails the build when it differs from the entry for
// FrameVersion (wire change without a version bump) or when FrameVersion is
// not the highest pinned version. Older pins stay as protocol history.
var wireVersions = map[int]string{
	1: "wire:v1:d157a25e4bf1fe36",
	2: "wire:v2:fa3cbad6787e3042",
	3: "wire:v3:3cfe0a888072015d",
}

// ---- wire structs ----
//
// Every struct below is part of the wire contract (marked //wire:struct for
// the wiregate analyzer). Field order is the encoding order.

// Hello opens a connection: the client names the hosted node whose
// Wait-Match Memory it wants to talk to.
//
//wire:struct
type Hello struct {
	Node string
}

// Register announces a worker to the coordinator: the node name it hosts
// and the address its transport server listens on.
//
//wire:struct
type Register struct {
	Node string
	Addr string
}

// Put lands one datum in the hosted sink under the key the in-process engine
// uses. TraceID (since frame v2)
// is the sampled-request trace context: 0 means unsampled; a nonzero id
// asks the receiver to record its landing stages under that id so both
// processes' span dumps correlate.
//
//wire:struct
type Put struct {
	TraceID   uint64
	ReqID     string
	Fn        string
	Data      string
	Consumers uint32
	Size      int64
	Payload   []byte
}

// PutBatch is the DLU batch header plus its puts: one frame per shipment
// edge, landed with a single sink multi-put on the remote side. A batch is
// one request's shipment group, so the trace context rides once on the
// header; the nested puts encode without their per-item TraceID field
// (they inherit the header's).
//
//wire:struct
type PutBatch struct {
	TraceID uint64
	Puts    []Put
}

// Get fetches one datum, counting one consumer (proactive-release
// accounting applies).
//
//wire:struct
type Get struct {
	ReqID string
	Fn    string
	Data  string
}

// Found answers a Get.
//
//wire:struct
type Found struct {
	Found   bool
	Payload []byte
}

// Release is the teardown message: drop every entry of the request.
//
//wire:struct
type Release struct {
	ReqID string
}

// StatsAck carries the sink's cumulative counters.
//
//wire:struct
type StatsAck struct {
	Puts              int64
	MemHits           int64
	DiskHits          int64
	Misses            int64
	ProactiveReleases int64
	Expirations       int64
	PeakMemBytes      int64
}

// Pong answers a liveness Ping, piggybacking the sink's resident bytes so
// every heartbeat refreshes the remote memory gauge.
//
//wire:struct
type Pong struct {
	MemBytes int64
}

// ErrMsg is a remote failure report.
//
//wire:struct
type ErrMsg struct {
	Code uint8
	Msg  string
}

// Remote error codes.
const (
	codeGeneric       = 0
	codeFrameTooLarge = 1
	codeUnknownNode   = 2
)

// ---- encoders ----

func appendHello(b []byte, m Hello) []byte { return appendString(b, m.Node) }

// AppendRegister encodes a worker registration (exported for cmd/node's
// coordinator handshake, which speaks raw frames).
func AppendRegister(b []byte, m Register) []byte {
	b = appendString(b, m.Node)
	return appendString(b, m.Addr)
}

// appendPutReq encodes one wmm.PutReq's datum fields directly (the ship
// path never builds intermediate Put structs).
func appendPutReq(b []byte, req wmm.PutReq) []byte {
	b = appendString(b, req.Key.ReqID)
	b = appendString(b, req.Key.Fn)
	b = appendString(b, req.Key.Data)
	b = appendUvarint(b, uint64(req.Consumers))
	b = appendVarint(b, req.Val.Size)
	return appendBytes(b, req.Val.Payload)
}

func appendPutBatch(b []byte, traceID uint64, reqs []wmm.PutReq) []byte {
	b = appendUvarint(b, traceID)
	b = appendUvarint(b, uint64(len(reqs)))
	for i := range reqs {
		b = appendPutReq(b, reqs[i])
	}
	return b
}

func appendGet(b []byte, m Get) []byte {
	b = appendString(b, m.ReqID)
	b = appendString(b, m.Fn)
	return appendString(b, m.Data)
}

func appendFound(b []byte, m Found) []byte {
	b = appendBool(b, m.Found)
	return appendBytes(b, m.Payload)
}

func appendRelease(b []byte, m Release) []byte { return appendString(b, m.ReqID) }

func appendStatsAck(b []byte, m StatsAck) []byte {
	b = appendVarint(b, m.Puts)
	b = appendVarint(b, m.MemHits)
	b = appendVarint(b, m.DiskHits)
	b = appendVarint(b, m.Misses)
	b = appendVarint(b, m.ProactiveReleases)
	b = appendVarint(b, m.Expirations)
	return appendVarint(b, m.PeakMemBytes)
}

func appendPong(b []byte, m Pong) []byte { return appendVarint(b, m.MemBytes) }

func appendErrMsg(b []byte, m ErrMsg) []byte {
	b = append(b, m.Code)
	return appendString(b, m.Msg)
}

// ---- decoders ----

func decodeHello(body []byte) (Hello, error) {
	r := wireReader{b: body}
	m := Hello{Node: r.str()}
	return m, r.done()
}

// DecodeRegister decodes a worker registration (exported for cmd/node).
func DecodeRegister(body []byte) (Register, error) {
	r := wireReader{b: body}
	m := Register{Node: r.str(), Addr: r.str()}
	return m, r.done()
}

func decodePut(r *wireReader) Put {
	p := Put{TraceID: r.uvarint()}
	decodePutItem(r, &p)
	return p
}

// decodePutItem fills the per-datum fields of a Put (see appendPutItem).
func decodePutItem(r *wireReader, p *Put) {
	p.ReqID = r.str()
	p.Fn = r.str()
	p.Data = r.str()
	p.Consumers = uint32(r.uvarint())
	p.Size = r.varint()
	p.Payload = r.bytes()
}

// decodePutBatch decodes straight into sink put requests, appending to
// dst, and returns the batch's trace context (0 = unsampled).
func decodePutBatch(body []byte, dst []wmm.PutReq) ([]wmm.PutReq, uint64, error) {
	r := wireReader{b: body}
	traceID := r.uvarint()
	n := r.uvarint()
	// A frame cannot hold more puts than bytes; reject a hostile count
	// before looping.
	if n > uint64(len(body)) {
		return dst, 0, fmt.Errorf("%w: put count %d exceeds body", ErrBadFrame, n)
	}
	for i := uint64(0); i < n && !r.bad; i++ {
		var p Put
		decodePutItem(&r, &p)
		dst = append(dst, wmm.PutReq{
			Key:       wmm.Key{ReqID: p.ReqID, Fn: p.Fn, Data: p.Data},
			Val:       dataflow.Value{Payload: p.Payload, Size: p.Size},
			Consumers: int(p.Consumers),
		})
	}
	return dst, traceID, r.done()
}

func decodeGet(body []byte) (Get, error) {
	r := wireReader{b: body}
	m := Get{ReqID: r.str(), Fn: r.str(), Data: r.str()}
	return m, r.done()
}

func decodeFound(body []byte) (Found, error) {
	r := wireReader{b: body}
	m := Found{Found: r.boolean(), Payload: r.bytes()}
	return m, r.done()
}

func decodeRelease(body []byte) (Release, error) {
	r := wireReader{b: body}
	m := Release{ReqID: r.str()}
	return m, r.done()
}

func decodeStatsAck(body []byte) (StatsAck, error) {
	r := wireReader{b: body}
	m := StatsAck{
		Puts:              r.varint(),
		MemHits:           r.varint(),
		DiskHits:          r.varint(),
		Misses:            r.varint(),
		ProactiveReleases: r.varint(),
		Expirations:       r.varint(),
		PeakMemBytes:      r.varint(),
	}
	return m, r.done()
}

func decodePong(body []byte) (Pong, error) {
	r := wireReader{b: body}
	m := Pong{MemBytes: r.varint()}
	return m, r.done()
}

func decodeErrMsg(body []byte) (ErrMsg, error) {
	r := wireReader{b: body}
	var m ErrMsg
	if len(r.b) == 0 {
		r.bad = true
	} else {
		m.Code = r.b[0]
		r.b = r.b[1:]
	}
	m.Msg = r.str()
	return m, r.done()
}
