package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/wmm"
)

// DefaultOpTimeout bounds one request/response exchange (and the dial
// handshake) when DialOptions.Timeout is zero. It doubles as the failure-
// detection horizon of the ship path: a peer that cannot answer within it
// surfaces as ErrTimeout, which the engine treats as unreachability.
const DefaultOpTimeout = 2 * time.Second

// ---- server ----

// ServerOptions configures a Server. It has no fields: a server stamps its
// sinks on the wall clock. ROADMAP item 1 (the bench/-only PR) drops it with
// bench/worker.go's call.
type ServerOptions struct{}

// Server serves one or more nodes' Wait-Match Memories over TCP. Each
// connection is bound to one hosted node by its Hello; frames then map 1:1
// onto sink operations, stamped with the host's elapsed time so TTL
// accounting matches a local sink's.
type Server struct {
	clk clock.Clock

	mu     sync.Mutex
	hosts  map[string]*hostedSink
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

type hostedSink struct {
	sink  *wmm.Sink
	start time.Duration
}

// NewServer returns a server with no hosts and no listener.
func NewServer(ServerOptions) *Server {
	return &Server{
		clk:   clock.NewWall(),
		hosts: make(map[string]*hostedSink),
		conns: make(map[net.Conn]struct{}),
	}
}

// Host serves the named node's sink. Must be called before a client Hellos
// the name; hosting the same name twice replaces the sink.
func (s *Server) Host(name string, sink *wmm.Sink) {
	s.mu.Lock()
	s.hosts[name] = &hostedSink{sink: sink, start: s.clk.Now()}
	s.mu.Unlock()
	// Pull-time occupancy gauges for the hosted sink: reads are atomics,
	// so scraping /metrics never touches the shard locks.
	obs.Default().SetGaugeFunc(`wmm_mem_bytes{node="`+name+`"}`, sink.MemBytes)
	obs.Default().SetGaugeFunc(`wmm_disk_bytes{node="`+name+`"}`, sink.DiskBytes)
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting connections
// in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", classify("listen", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", wireErr("listen", addr, ErrClosed, nil)
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener, drops every connection and waits for the
// connection handlers to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// handleConn speaks the protocol on one connection: a Hello binds it to a
// hosted sink, then each request frame is answered by exactly one response
// frame. Read errors (including a peer vanishing) end the connection; a
// protocol error is answered with an ErrMsg and the connection dropped,
// since framing can no longer be trusted.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	var rbuf, wbuf []byte
	var reqScratch []wmm.PutReq
	t, body, err := ReadFrame(conn, &rbuf, DefaultMaxFrame)
	if err != nil || t != MsgHello {
		return
	}
	hello, err := decodeHello(body)
	if err != nil {
		return
	}
	s.mu.Lock()
	host := s.hosts[hello.Node]
	s.mu.Unlock()
	if host == nil {
		body := appendErrMsg(wbuf[:0], ErrMsg{Code: codeUnknownNode, Msg: fmt.Sprintf("node %q not hosted", hello.Node)})
		WriteFrame(conn, MsgErr, body, DefaultMaxFrame)
		return
	}
	if err := WriteFrame(conn, MsgHelloAck, nil, DefaultMaxFrame); err != nil {
		return
	}
	sink := host.sink
	stripe := obsStripeSeq.Add(1)
	for {
		t, body, err := ReadFrame(conn, &rbuf, DefaultMaxFrame)
		if err != nil {
			return
		}
		obsServerFrames.Inc(stripe)
		obsServerBytes.Add(stripe, int64(len(body)+frameHeaderLen))
		at := s.clk.Now() - host.start
		var (
			respT MsgType = MsgAck
			resp  []byte  = wbuf[:0]
			fail  error
		)
		switch t {
		case MsgPut:
			r := wireReader{b: body}
			p := decodePut(&r)
			if fail = r.done(); fail == nil {
				sink.Put(at, wmm.Key{ReqID: p.ReqID, Fn: p.Fn, Data: p.Data},
					dataflow.Value{Payload: p.Payload, Size: p.Size}, int(p.Consumers))
				if p.TraceID != 0 {
					// Sampled request: record the landing under the sender's
					// trace id so both processes' span dumps correlate.
					obs.Default().Ring().Observe(p.TraceID, p.ReqID, obs.DataArrived, at, p.Fn, 1)
				}
			}
		case MsgPutBatch:
			var traceID uint64
			reqScratch, traceID, fail = decodePutBatch(body, reqScratch[:0])
			if fail == nil {
				sink.PutBatch(at, reqScratch)
				if traceID != 0 && len(reqScratch) > 0 {
					first := reqScratch[0].Key
					obs.Default().Ring().Observe(traceID, first.ReqID, obs.DataArrived, at, first.Fn, len(reqScratch))
				}
			}
			clear(reqScratch) // drop payload references
			reqScratch = reqScratch[:0]
		case MsgGet:
			var g Get
			g, fail = decodeGet(body)
			if fail == nil {
				v, _, ok := sink.Get(at, wmm.Key{ReqID: g.ReqID, Fn: g.Fn, Data: g.Data})
				respT, resp = MsgFound, appendFound(wbuf[:0], Found{Found: ok, Payload: v.Payload})
			}
		case MsgRelease:
			var rel Release
			rel, fail = decodeRelease(body)
			if fail == nil {
				sink.ReleaseRequest(at, rel.ReqID)
			}
		case MsgClear:
			sink.Clear(at)
		case MsgStats:
			st := sink.Stats()
			respT, resp = MsgStatsAck, appendStatsAck(wbuf[:0], StatsAck{
				Puts: st.Puts, MemHits: st.MemHits, DiskHits: st.DiskHits,
				Misses: st.Misses, ProactiveReleases: st.ProactiveReleases,
				Expirations: st.Expirations, PeakMemBytes: st.PeakMemBytes,
			})
		case MsgPing:
			respT, resp = MsgPong, appendPong(wbuf[:0], Pong{MemBytes: sink.MemBytes()})
		default:
			fail = fmt.Errorf("%w: unexpected %s frame", ErrBadFrame, t)
		}
		if fail != nil {
			code := uint8(codeGeneric)
			if errors.Is(fail, ErrFrameTooLarge) {
				code = codeFrameTooLarge
			}
			WriteFrame(conn, MsgErr, appendErrMsg(wbuf[:0], ErrMsg{Code: code, Msg: fail.Error()}), DefaultMaxFrame)
			return
		}
		if err := WriteFrame(conn, respT, resp, DefaultMaxFrame); err != nil {
			return
		}
		wbuf = resp[:0]
	}
}

// ---- client ----

// DialOptions configures a Client.
type DialOptions struct {
	// Timeout bounds the dial, the handshake and each request/response
	// exchange (DefaultOpTimeout when 0).
	Timeout time.Duration
}

func (o DialOptions) withDefaults() DialOptions {
	if o.Timeout <= 0 {
		o.Timeout = DefaultOpTimeout
	}
	return o
}

// DialTCP connects to a Server at addr, binding to the named hosted node.
func DialTCP(ctx context.Context, addr, node string, opts DialOptions) (*Client, error) {
	c := &Client{addr: addr, node: node, opts: opts.withDefaults(), stripe: obsStripeSeq.Add(1)}
	c.mu.Lock()
	err := c.connectLocked(ctx)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Client is the TCP transport: one connection, synchronous request/response
// exchanges serialized under a mutex (the engine's batched ship path sends
// few, large frames, so a single in-order channel suffices). A broken
// connection is redialed once per operation — a restarted peer reconnects
// transparently; a dead one yields a typed wire error the engine's failure
// detection consumes.
type Client struct {
	addr   string
	node   string
	opts   DialOptions
	stripe uint32 // obs instrument lane

	mu     sync.Mutex
	conn   net.Conn
	rbuf   []byte
	wbuf   []byte
	ebuf   []byte // body-encoding scratch
	closed bool

	memBytes atomic.Int64
}

var _ Transport = (*Client)(nil)

// connectLocked dials and handshakes. Caller holds c.mu.
func (c *Client) connectLocked(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	d := net.Dialer{Timeout: c.opts.Timeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return classify("dial", c.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetDeadline(clock.Deadline(c.opts.Timeout))
	if err := WriteFrame(conn, MsgHello, appendHello(c.ebuf[:0], Hello{Node: c.node}), DefaultMaxFrame); err != nil {
		conn.Close()
		return classify("hello", c.addr, err)
	}
	t, body, err := ReadFrame(conn, &c.rbuf, DefaultMaxFrame)
	if err != nil {
		conn.Close()
		return classify("hello", c.addr, err)
	}
	if t == MsgErr {
		conn.Close()
		if m, derr := decodeErrMsg(body); derr == nil {
			return wireErr("hello", c.addr, ErrConnReset, errors.New(m.Msg))
		}
		return wireErr("hello", c.addr, ErrBadFrame, nil)
	}
	if t != MsgHelloAck || len(body) != 0 {
		conn.Close()
		return wireErr("hello", c.addr, ErrBadFrame, nil)
	}
	c.conn = conn
	return nil
}

// dropLocked tears the connection down after an I/O failure.
func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// rpc performs one exchange: frame out, frame back. enc builds the request
// body into the client's scratch (nil for empty bodies) and dec consumes
// the response body (nil to ignore it) — both run under c.mu, because the
// scratch and the read buffer are clobbered by the next operation the
// moment the lock is released. A cached connection that fails is dropped
// and the operation retried once on a fresh dial (the peer may have
// restarted since the last exchange); a connection established within this
// call is not retried — its failure is fresh evidence the peer is gone.
// The engine's sink operations are idempotent (re-put replaces, re-release
// is a no-op), so the single ambiguous retry cannot corrupt state.
func (c *Client) rpc(op string, t MsgType, enc func([]byte) []byte, want MsgType, dec func(body []byte) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return wireErr(op, c.addr, ErrClosed, nil)
	}
	var body []byte
	if enc != nil {
		c.ebuf = enc(c.ebuf[:0])
		body = c.ebuf
	}
	retried := false
	for {
		fresh := false
		if c.conn == nil {
			if err := c.connectLocked(nil); err != nil {
				return err
			}
			fresh = true
		}
		resp, err := c.exchangeLocked(op, t, body, want)
		if err == nil {
			if dec == nil {
				return nil
			}
			// A decode failure is a protocol error, not unreachability:
			// surface it without retrying.
			return dec(resp)
		}
		if errors.Is(err, ErrTimeout) {
			obsTimeouts.Inc(c.stripe)
		}
		c.dropLocked()
		if fresh || retried || !Unreachable(err) {
			return err
		}
		retried = true
		obsRetries.Inc(c.stripe)
	}
}

func (c *Client) exchangeLocked(op string, t MsgType, body []byte, want MsgType) ([]byte, error) {
	conn := c.conn
	conn.SetDeadline(clock.Deadline(c.opts.Timeout))
	c.wbuf = AppendFrame(c.wbuf[:0], t, body)
	if len(c.wbuf)-4 > DefaultMaxFrame {
		return nil, wireErr(op, c.addr, ErrFrameTooLarge,
			fmt.Errorf("%d byte %s frame exceeds cap %d", len(c.wbuf)-4, t, DefaultMaxFrame))
	}
	if _, err := conn.Write(c.wbuf); err != nil {
		return nil, classify(op, c.addr, err)
	}
	obsFramesSent.Inc(c.stripe)
	obsBytesSent.Add(c.stripe, int64(len(c.wbuf)))
	rt, resp, err := ReadFrame(conn, &c.rbuf, DefaultMaxFrame)
	if err != nil {
		return nil, classify(op, c.addr, err)
	}
	obsFramesRecv.Inc(c.stripe)
	obsBytesRecv.Add(c.stripe, int64(len(resp)+frameHeaderLen))
	if rt == MsgErr {
		m, derr := decodeErrMsg(resp)
		if derr != nil {
			return nil, wireErr(op, c.addr, ErrBadFrame, derr)
		}
		if m.Code == codeFrameTooLarge {
			return nil, wireErr(op, c.addr, ErrFrameTooLarge, errors.New(m.Msg))
		}
		// The server drops the connection after an ErrMsg; treat the channel
		// as reset so the next operation redials.
		return nil, wireErr(op, c.addr, ErrConnReset, errors.New(m.Msg))
	}
	if rt != want {
		return nil, wireErr(op, c.addr, ErrBadFrame, fmt.Errorf("got %s, want %s", rt, want))
	}
	return resp, nil
}

// ShipBatch implements Transport. The source container's TC class is
// charged locally (it shapes this host's egress); the wire itself is the
// destination NIC.
func (c *Client) ShipBatch(_ context.Context, pace Pacing, reqs []wmm.PutReq) error {
	if pace.Bytes > 0 {
		pace.Src.TakeN(pace.Items, pace.Bytes)
	}
	return c.rpc("ship", MsgPutBatch, func(dst []byte) []byte {
		return appendPutBatch(dst, pace.TraceID, reqs)
	}, MsgAck, nil)
}

// Land implements Transport.
func (c *Client) Land(_ context.Context, pace Pacing, req wmm.PutReq) error {
	if pace.Bytes > 0 {
		pace.Src.Take(pace.Bytes)
	}
	return c.rpc("land", MsgPut, func(dst []byte) []byte {
		dst = appendUvarint(dst, pace.TraceID)
		return appendPutReq(dst, req)
	}, MsgAck, nil)
}

// Get implements Transport.
func (c *Client) Get(_ context.Context, key wmm.Key) (dataflow.Value, bool, error) {
	var f Found
	err := c.rpc("get", MsgGet, func(dst []byte) []byte {
		return appendGet(dst, Get{ReqID: key.ReqID, Fn: key.Fn, Data: key.Data})
	}, MsgFound, func(body []byte) error {
		m, derr := decodeFound(body)
		if derr != nil {
			return wireErr("get", c.addr, ErrBadFrame, derr)
		}
		f = m // the decoded payload is a copy, safe past the lock
		return nil
	})
	if err != nil {
		return dataflow.Value{}, false, err
	}
	if !f.Found {
		return dataflow.Value{}, false, nil
	}
	return dataflow.Value{Payload: f.Payload, Size: int64(len(f.Payload))}, true, nil
}

// Release implements Transport.
func (c *Client) Release(_ context.Context, reqID string) error {
	return c.rpc("release", MsgRelease, func(dst []byte) []byte {
		return appendRelease(dst, Release{ReqID: reqID})
	}, MsgAck, nil)
}

// Clear implements Transport.
func (c *Client) Clear(_ context.Context) error {
	return c.rpc("clear", MsgClear, nil, MsgAck, nil)
}

// Stats implements Transport.
func (c *Client) Stats(_ context.Context) (wmm.Stats, error) {
	var m StatsAck
	err := c.rpc("stats", MsgStats, nil, MsgStatsAck, func(body []byte) error {
		sa, derr := decodeStatsAck(body)
		if derr != nil {
			return wireErr("stats", c.addr, ErrBadFrame, derr)
		}
		m = sa
		return nil
	})
	if err != nil {
		return wmm.Stats{}, err
	}
	return wmm.Stats{
		Puts: m.Puts, MemHits: m.MemHits, DiskHits: m.DiskHits,
		Misses: m.Misses, ProactiveReleases: m.ProactiveReleases,
		Expirations: m.Expirations, PeakMemBytes: m.PeakMemBytes,
	}, nil
}

// MemBytes implements Transport: the gauge from the last Pong (heartbeats
// refresh it continuously), so a reader never blocks on an RPC.
func (c *Client) MemBytes() int64 { return c.memBytes.Load() }

// Ping implements Transport.
func (c *Client) Ping(_ context.Context) error {
	return c.rpc("ping", MsgPing, nil, MsgPong, func(body []byte) error {
		if m, derr := decodePong(body); derr == nil {
			c.memBytes.Store(m.MemBytes)
		}
		return nil
	})
}

// Close implements Transport.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.dropLocked()
	return nil
}
