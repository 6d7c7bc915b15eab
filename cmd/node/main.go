// Command node runs the DataFlower runtime split across OS processes: N
// worker processes each host a shard of the cluster's Wait-Match Memory
// behind the TCP transport, and one coordinator process runs the FLU/DLU
// engine against them — shipping every cross-function item over real
// sockets, detecting worker death from real timeouts (the liveness prober,
// no FailNode calls), and replaying lost data onto survivors.
//
// Usage:
//
//	node -mode=coord  -listen 127.0.0.1:7070 -workers 2 -requests 200
//	node -mode=worker -name w1 -listen 127.0.0.1:0 -coord 127.0.0.1:7070
//
// The coordinator prints its registration address first ("coord listening
// on ADDR"), waits for -workers registrations, runs a wordcount storm and
// prints a one-line JSON summary. It exits 0 iff at least 95% of the
// requests completed — the bar the two-process kill test holds it to.
//
// Both modes serve the observability plane when -http is set ("" disables,
// ":0" picks a free port): /metrics (Prometheus text), /debug/requests
// (sampled spans) and /debug/health. The bound address is printed as "obs
// listening on ADDR". The coordinator samples 1 request in -sample for
// span recording; the trace context crosses the wire, so a sampled
// request's spans appear in both processes under the same trace id.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wmm"
	"repro/internal/workloads"
)

func main() {
	mode := flag.String("mode", "", "worker or coord")
	name := flag.String("name", "w1", "worker: node name to host")
	listen := flag.String("listen", "127.0.0.1:0", "address to listen on")
	coord := flag.String("coord", "", "worker: coordinator registration address")
	workers := flag.Int("workers", 2, "coord: registrations to wait for")
	requests := flag.Int("requests", 200, "coord: wordcount storm size")
	fanout := flag.Int("fanout", 3, "coord: wordcount fan-out")
	pace := flag.Duration("pace", 2*time.Millisecond, "coord: delay between request launches")
	reqTimeout := flag.Duration("timeout", 15*time.Second, "coord: per-request completion bound")
	httpAddr := flag.String("http", "", "obs endpoint address (/metrics, /debug/requests); empty disables")
	sample := flag.Int("sample", 0, "coord: sample 1 request in N for span tracing (0 = off)")
	flag.Parse()

	var err error
	switch *mode {
	case "worker":
		err = runWorker(*name, *listen, *coord, *httpAddr)
	case "coord":
		err = runCoord(*listen, *workers, *requests, *fanout, *pace, *reqTimeout, *httpAddr, *sample)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runWorker hosts one node's sink over TCP and registers it with the
// coordinator, then serves until killed.
func runWorker(name, listen, coord, httpAddr string) error {
	srv := transport.NewServer(transport.ServerOptions{})
	srv.Host(name, wmm.NewSink(wmm.Options{}))
	addr, err := srv.Listen(listen)
	if err != nil {
		return err
	}
	defer srv.Close()
	if httpAddr != "" {
		obs.Default().Ring().SetOrigin("worker/" + name)
		closeObs, err := serveObs(httpAddr, nil)
		if err != nil {
			return err
		}
		defer closeObs()
	}
	fmt.Printf("worker %s serving on %s\n", name, addr)
	if coord != "" {
		if err := register(coord, transport.Register{Node: name, Addr: addr}); err != nil {
			return err
		}
	}
	select {} // serve until the process is killed
}

// serveObs mounts the observability endpoints (/metrics, /debug/requests,
// /debug/health) on addr and prints the bound address.
func serveObs(addr string, health func() any) (func() error, error) {
	h := obs.Handler(obs.Default(), obs.HandlerOpts{Health: health})
	bound, closer, err := obs.Serve(addr, h)
	if err != nil {
		return nil, err
	}
	fmt.Printf("obs listening on %s\n", bound)
	return closer, nil
}

// register announces the worker to the coordinator, retrying while the
// coordinator is still coming up.
func register(coord string, reg transport.Register) error {
	deadline := time.Now().Add(10 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", coord, 2*time.Second)
		if err != nil {
			lastErr = err
			time.Sleep(100 * time.Millisecond)
			continue
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
		err = func() error {
			if err := transport.WriteFrame(conn, transport.MsgRegister, transport.AppendRegister(nil, reg), 0); err != nil {
				return err
			}
			var buf []byte
			mt, _, err := transport.ReadFrame(conn, &buf, 0)
			if err != nil {
				return err
			}
			if mt != transport.MsgAck {
				return fmt.Errorf("coordinator answered message type %d, want ack", mt)
			}
			return nil
		}()
		conn.Close()
		if err == nil {
			return nil
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("register with %s: %w", coord, lastErr)
}

// acceptRegistration reads one Register frame off a fresh connection and
// acks it.
func acceptRegistration(conn net.Conn) (transport.Register, error) {
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	var buf []byte
	mt, body, err := transport.ReadFrame(conn, &buf, 0)
	if err != nil {
		return transport.Register{}, err
	}
	if mt != transport.MsgRegister {
		return transport.Register{}, fmt.Errorf("expected register, got message type %d", mt)
	}
	reg, err := transport.DecodeRegister(body)
	if err != nil {
		return transport.Register{}, err
	}
	if err := transport.WriteFrame(conn, transport.MsgAck, nil, 0); err != nil {
		return transport.Register{}, err
	}
	return reg, nil
}

// runCoord collects worker registrations, assembles a remote-node cluster
// over TCP clients, and drives a paced wordcount storm through it with the
// fault-tolerance plane and the liveness prober armed.
func runCoord(listen string, workers, requests, fanout int, pace, reqTimeout time.Duration, httpAddr string, sample int) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("coord listening on %s\n", ln.Addr())
	regs := make([]transport.Register, 0, workers)
	for len(regs) < workers {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		reg, err := acceptRegistration(conn)
		conn.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "registration failed: %v\n", err)
			continue
		}
		fmt.Fprintf(os.Stderr, "registered %s at %s\n", reg.Node, reg.Addr)
		regs = append(regs, reg)
	}
	ln.Close()

	cl := cluster.NewCluster(nil)
	for _, reg := range regs {
		c, err := transport.DialTCP(context.Background(), reg.Addr, reg.Node, transport.DialOptions{Timeout: 2 * time.Second})
		if err != nil {
			return fmt.Errorf("dial %s: %w", reg.Node, err)
		}
		defer c.Close()
		if err := cl.AddNode(cluster.NewRemoteNode(reg.Node, c, false, cluster.Options{
			ColdStart: time.Millisecond,
		})); err != nil {
			return err
		}
	}

	prof := workloads.WordCount(fanout, 0)
	sys, err := core.NewSystem(core.Config{
		Workflow:      prof.Workflow,
		Cluster:       cl,
		DefaultSpec:   cluster.Spec{MemoryMB: 1024},
		FaultTolerant: true,
		Obs:           core.ObsConfig{SampleEvery: sample},
	})
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	if err := workloads.RegisterWordCount(sys, fanout); err != nil {
		return err
	}
	if httpAddr != "" {
		obs.Default().Ring().SetOrigin("coord")
		closeObs, err := serveObs(httpAddr, func() any {
			return map[string]any{"pending": sys.PendingInvocations(), "replays": sys.Replays()}
		})
		if err != nil {
			return err
		}
		defer closeObs()
	}

	stopProber := cl.StartProber(cluster.ProberOptions{
		Interval:  100 * time.Millisecond,
		DownAfter: 3,
		OnTransition: func(node string, to cluster.NodeHealth) {
			fmt.Fprintf(os.Stderr, "health: %s -> %v\n", node, to)
		},
	})
	defer stopProber()

	fmt.Println("storm started")
	var completed, failed atomic.Int64
	var wg sync.WaitGroup
	input := []byte("the quick brown fox jumps over the lazy dog the fox again")
	for i := 0; i < requests; i++ {
		inv, err := sys.Invoke(map[string][]byte{"start.src": input})
		if err != nil {
			failed.Add(1)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-inv.Done():
				if _, ok := inv.OutputBytes("out"); ok && inv.Err() == nil {
					completed.Add(1)
					return
				}
				failed.Add(1)
			case <-time.After(reqTimeout):
				failed.Add(1)
			}
		}()
		time.Sleep(pace)
	}
	wg.Wait()

	summary := struct {
		Requests  int   `json:"requests"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Replays   int64 `json:"replays"`
	}{requests, completed.Load(), failed.Load(), sys.Replays()}
	b, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if summary.Completed*100 < int64(requests)*95 {
		return fmt.Errorf("only %d/%d requests completed", summary.Completed, requests)
	}
	return nil
}
