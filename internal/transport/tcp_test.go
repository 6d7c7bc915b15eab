package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/pipe"
	"repro/internal/wmm"
)

func startServer(t *testing.T, name string, sinkOpts wmm.Options) (*Server, *wmm.Sink, string) {
	t.Helper()
	sink := wmm.NewSink(sinkOpts)
	srv := NewServer(ServerOptions{})
	srv.Host(name, sink)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, sink, addr
}

func dial(t *testing.T, addr, node string) *Client {
	t.Helper()
	c, err := DialTCP(context.Background(), addr, node, DialOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("DialTCP: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTCPSinkOps(t *testing.T) {
	_, sink, addr := startServer(t, "n1", wmm.Options{})
	c := dial(t, addr, "n1")
	ctx := context.Background()

	key := wmm.Key{ReqID: "req-1", Fn: "count", Data: "words@0<-split[0].out"}
	if err := c.Land(ctx, Pacing{}, wmm.PutReq{Key: key, Val: dataflow.Value{Payload: []byte("hi"), Size: 2}, Consumers: 1}); err != nil {
		t.Fatalf("Land: %v", err)
	}
	if v, ok, err := c.Get(ctx, key); err != nil || !ok || string(v.Payload) != "hi" {
		t.Fatalf("Get: %v %v %v", v, ok, err)
	}
	if _, ok, err := c.Get(ctx, key); err != nil || ok {
		t.Fatalf("Get after consume: found=%v err=%v", ok, err)
	}

	batch := []wmm.PutReq{
		{Key: wmm.Key{ReqID: "req-2", Fn: "f", Data: "a"}, Val: dataflow.Value{Payload: []byte("1"), Size: 1}, Consumers: 1},
		{Key: wmm.Key{ReqID: "req-2", Fn: "f", Data: "b"}, Val: dataflow.Value{Payload: []byte("22"), Size: 2}, Consumers: 1},
	}
	lim := pipe.NewLimiter(nil, 0) // unlimited: pacing must be charged without a clock touch
	if err := c.ShipBatch(ctx, Pacing{Src: lim, Items: 2, Bytes: 3}, batch); err != nil {
		t.Fatalf("ShipBatch: %v", err)
	}
	if got := sink.MemBytes(); got != 3 {
		t.Fatalf("server sink holds %d bytes, want 3", got)
	}
	if err := c.Release(ctx, "req-2"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := sink.MemBytes(); got != 0 {
		t.Fatalf("Release left %d bytes", got)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Puts != 3 || st.MemHits != 1 || st.Misses != 1 {
		t.Fatalf("Stats = %+v, want Puts 3 MemHits 1 Misses 1", st)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := c.Clear(ctx); err != nil {
		t.Fatalf("Clear: %v", err)
	}
}

func TestTCPUnknownNode(t *testing.T) {
	_, _, addr := startServer(t, "n1", wmm.Options{})
	if _, err := DialTCP(context.Background(), addr, "ghost", DialOptions{Timeout: time.Second}); err == nil {
		t.Fatal("dial to unhosted node succeeded")
	}
}

func TestTCPErrorTaxonomy(t *testing.T) {
	t.Run("conn refused is unreachable", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close() // nothing listens here now
		_, err = DialTCP(context.Background(), addr, "n1", DialOptions{Timeout: 500 * time.Millisecond})
		if err == nil {
			t.Fatal("dial succeeded against a closed port")
		}
		if !Unreachable(err) {
			t.Fatalf("refused dial not Unreachable: %v", err)
		}
	})

	t.Run("server death is ErrConnReset", func(t *testing.T) {
		srv, _, addr := startServer(t, "n1", wmm.Options{})
		c := dial(t, addr, "n1")
		srv.Close()
		err := c.Ping(context.Background())
		if err == nil {
			t.Fatal("Ping succeeded against a closed server")
		}
		if !errors.Is(err, ErrConnReset) && !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrConnReset/ErrTimeout", err)
		}
		if !Unreachable(err) {
			t.Fatalf("dead server not Unreachable: %v", err)
		}
	})

	t.Run("unresponsive peer is ErrTimeout", func(t *testing.T) {
		// A raw listener that accepts and then never speaks: the handshake
		// read must time out.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				// Swallow the Hello, answer nothing.
			}
		}()
		_, err = DialTCP(context.Background(), ln.Addr().String(), "n1", DialOptions{Timeout: 300 * time.Millisecond})
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	})

	t.Run("oversize ship is ErrFrameTooLarge", func(t *testing.T) {
		_, _, addr := startServer(t, "n1", wmm.Options{})
		c, err := DialTCP(context.Background(), addr, "n1", DialOptions{Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		big := make([]byte, DefaultMaxFrame)
		err = c.Land(context.Background(), Pacing{}, wmm.PutReq{
			Key: wmm.Key{ReqID: "r", Fn: "f", Data: "d"},
			Val: dataflow.Value{Payload: big, Size: int64(len(big))},
		})
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
		if Unreachable(err) {
			t.Fatal("ErrFrameTooLarge misclassified as unreachability")
		}
	})

	t.Run("closed client is ErrClosed", func(t *testing.T) {
		_, _, addr := startServer(t, "n1", wmm.Options{})
		c := dial(t, addr, "n1")
		c.Close()
		if err := c.Ping(context.Background()); !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	})
}

// TestTCPReconnect: a client survives a server restart on the same address —
// the cached connection fails, the op redials transparently.
func TestTCPReconnect(t *testing.T) {
	sink := wmm.NewSink(wmm.Options{})
	srv := NewServer(ServerOptions{})
	srv.Host("n1", sink)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP(context.Background(), addr, "n1", DialOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("first Ping: %v", err)
	}
	srv.Close()
	srv2 := NewServer(ServerOptions{})
	srv2.Host("n1", sink)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping after restart: %v", err)
	}
}

// TestInprocStreamResumes: the streaming-pipe seam moved behind the
// transport keeps its ReDo-from-checkpoint behavior — one injected failure
// mid-stream, one resume, success.
func TestInprocStreamResumes(t *testing.T) {
	sink := wmm.NewSink(wmm.Options{})
	tr := NewInproc(sink, nil, func() time.Duration { return 0 })
	payload := make([]byte, 64<<10)
	fails := 0
	err := tr.Stream(StreamSpec{
		ID:      "req-1/a[0].out->b[0]",
		Src:     pipe.NewLimiter(nil, 0),
		Log:     pipe.NewCheckpointLog(),
		Retries: 2,
		FailAfter: func() int64 {
			fails++
			if fails == 1 {
				return 32 << 10
			}
			return -1
		},
	}, payload)
	if err != nil {
		t.Fatalf("Stream with one injected failure: %v", err)
	}
	if fails < 2 {
		t.Fatalf("injector consulted %d times, want >=2 (initial + resume)", fails)
	}
}
