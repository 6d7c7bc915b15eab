package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/pipe"
	"repro/internal/transport"
	"repro/internal/wmm"
	"repro/internal/workflow"
)

// The ladder times direct calls into each layer's exported functions with
// the workload's item size and counts: one rung per layer operation, from
// outside the engine. Nanosecond rungs are timed in bulk rounds (the clock
// read would dominate a single call); microsecond rungs — RPCs and parks —
// are timed call by call. Every rung reports a median.

// bulk runs rounds rounds of n calls of op (after an untimed prepare, when
// given) and returns the median round's nanoseconds per call.
func bulk(rounds, n int, prepare func(), op func(i int)) float64 {
	per := make([]float64, rounds)
	for r := range per {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// each times n calls of op one by one and returns the median in
// microseconds.
func each(n int, op func(i int) error) (float64, error) {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		if err := op(i); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us), nil
}

// sleepFloorUS is the box's time.Sleep floor: what a 50 µs sleep really
// takes. Every limiter park is at least this long.
func sleepFloorUS(n int) float64 {
	us, _ := each(n, func(int) error { //nolint:errcheck // op cannot fail
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	return us
}

// ladderKeys builds n sink keys shaped like the engine's: one request each.
func ladderKeys(n int) []wmm.Key {
	keys := make([]wmm.Key, n)
	for i := range keys {
		keys[i] = wmm.Key{ReqID: "ladder-" + strconv.Itoa(i), Fn: "work", Data: "part@0<-start[0].parts"}
	}
	return keys
}

// ladderBatches builds one PutBatch of parts entries per key's request.
func ladderBatches(keys []wmm.Key, parts int, val dataflow.Value) [][]wmm.PutReq {
	batches := make([][]wmm.PutReq, len(keys))
	for i, k := range keys {
		for j := 0; j < parts; j++ {
			k.Data = "part@" + strconv.Itoa(j)
			batches[i] = append(batches[i], wmm.PutReq{Key: k, Val: val, Consumers: 1})
		}
	}
	return batches
}

// trackerWalk pushes one request of the workload's shape through a
// dataflow.Tracker the way the engine does — Init, StartBytes, then
// InputsAppend, RouteAppend and DeliverInto per instance — and returns the
// number of instances it ran.
func (w *workload) trackerWalk(wf *workflow.Workflow, input map[string][]byte, scratch *walkScratch) (int, error) {
	var t dataflow.Tracker
	t.Init(wf, "ladder")
	queue, err := t.StartBytes(input)
	if err != nil {
		return 0, err
	}
	seg := int64(w.payload / w.parts)
	ran := 0
	for ; len(queue) > 0; ran++ {
		key := queue[0]
		queue = queue[1:]
		scratch.inputs = t.InputsAppend(scratch.inputs[:0], key)
		var f fnSpec
		for _, f = range w.fns {
			if f.name == key.Fn {
				break
			}
		}
		vals := scratch.vals[:1]
		switch f.kind {
		case kindEcho:
			vals[0].Size = int64(w.payload)
		case kindSplit:
			vals = scratch.vals[:w.parts]
			for i := range vals {
				vals[i].Size = seg
			}
		default:
			vals[0].Size = 2 * seqLen
		}
		scratch.items, err = t.RouteAppend(scratch.items[:0], key, f.out, vals, 0)
		if err != nil {
			return 0, err
		}
		for _, it := range scratch.items {
			if queue, err = t.DeliverInto(queue, it); err != nil {
				return 0, err
			}
		}
	}
	return ran, nil
}

type walkScratch struct {
	inputs []dataflow.InputVals
	items  []dataflow.Item
	vals   [fanParts]dataflow.Value
}

// ladder measures every rung for w. It spawns its own worker process for
// the TCP rungs, so they cross a process boundary like fan-tcp's RPCs do
// whatever the workload's own deployment is.
func (w *workload) ladder(tmpl []byte, quick bool) (map[string]float64, error) {
	rounds, n, rpcs := 5, 2000, 200
	if quick {
		rounds, n, rpcs = 3, 200, 24
	}
	m := map[string]float64{}
	ctx := context.Background()
	item := w.segment(tmpl, 0)
	val := dataflow.Value{Payload: item, Size: int64(len(item))}
	keys := ladderKeys(n)
	at := func() time.Duration { return time.Second }

	// workflow, dataflow
	m["workflow.parse_us"] = bulk(rounds, 20, nil, func(int) {
		workflow.ParseDSLString(w.dsl) //nolint:errcheck // parsed once already by deploy
	}) / 1e3
	wf, err := workflow.ParseDSLString(w.dsl)
	if err != nil {
		return nil, err
	}
	input := map[string][]byte{w.entry: tmpl}
	var scratch walkScratch
	if ran, err := w.trackerWalk(wf, input, &scratch); err != nil || ran != w.instances() {
		return nil, fmt.Errorf("tracker walk ran %d of %d instances: %v", ran, w.instances(), err)
	}
	m["dataflow.tracker_req_ns"] = bulk(rounds, n, nil, func(int) {
		w.trackerWalk(wf, input, &scratch) //nolint:errcheck // checked above
	})

	// cluster free-list
	node := cluster.NewNode("ladder", cluster.Options{})
	node.Release(node.StartContainer("f", benchSpec))
	m["cluster.acquire_release_ns"] = bulk(rounds, n, nil, func(int) {
		if c, ok := node.AcquireIdle("f"); ok {
			node.Release(c)
		}
	})

	// wmm, at the workload's item size
	sink := wmm.NewSink(wmm.Options{})
	putAll := func() {
		for _, k := range keys {
			sink.Put(at(), k, val, 1)
		}
	}
	getAll := func() {
		for _, k := range keys {
			sink.Get(at(), k)
		}
	}
	m["wmm.put_ns"] = bulk(rounds, n, getAll, func(i int) { sink.Put(at(), keys[i], val, 1) })
	getAll()
	m["wmm.get_ns"] = bulk(rounds, n, putAll, func(i int) { sink.Get(at(), keys[i]) })
	// One batch is what one Put of the workload routes: its fan-out degree.
	batches := ladderBatches(keys, w.parts, val)
	releaseAll := func() {
		for _, k := range keys {
			sink.ReleaseRequest(at(), k.ReqID)
		}
	}
	putBatches := func() {
		for _, b := range batches {
			sink.PutBatch(at(), b)
		}
	}
	m["wmm.putbatch_item_ns"] = bulk(rounds, n, releaseAll, func(i int) { sink.PutBatch(at(), batches[i]) }) / float64(w.parts)
	releaseAll()
	m["wmm.release_ns"] = bulk(rounds, n, putBatches, func(i int) { sink.ReleaseRequest(at(), keys[i].ReqID) })
	if left := sink.MemBytes(); left != 0 {
		return nil, fmt.Errorf("ladder sink holds %d bytes after its last release", left)
	}

	// pipe, at the container's TC rate
	rate := benchSpec.BandwidthBps()
	lim := pipe.NewLimiter(clock.NewWall(), rate)
	// 8 bytes cost less wire time than the call takes, so the bucket never
	// accrues a park: this is the charge's CPU cost alone.
	m["pipe.take_cpu_ns"] = bulk(rounds, n, nil, func(int) { lim.Take(8) })
	m["pipe.sleep_floor_us"] = sleepFloorUS(rpcs / 4)
	chunkLim := pipe.NewLimiter(clock.NewWall(), rate)
	m["pipe.chunk_wait_us"], _ = each(rpcs/4, func(int) error {
		chunkLim.Take(pipe.DefaultChunkSize)
		return nil
	})
	m["pipe.pacing_overshoot_ratio"] = m["pipe.chunk_wait_us"] / (pipe.DefaultChunkSize / rate * 1e6)

	// transport, in process (unpaced: the limiter's cost is the pipe rungs)
	inproc := transport.NewInproc(sink, nil, at)
	m["transport.inproc_land_ns"] = bulk(rounds, n, getAll, func(i int) {
		inproc.Land(ctx, transport.Pacing{}, wmm.PutReq{Key: keys[i], Val: val, Consumers: 1}) //nolint:errcheck // Inproc never fails
	})
	getAll()
	m["transport.inproc_ship_ns"] = bulk(rounds, n, releaseAll, func(i int) {
		inproc.ShipBatch(ctx, transport.Pacing{}, batches[i]) //nolint:errcheck // Inproc never fails
	})
	releaseAll()

	// frame codec, 8 KiB body
	body := make([]byte, 8<<10)
	var wire bytes.Buffer
	m["transport.frame_write_ns"] = bulk(rounds, n, nil, func(int) {
		wire.Reset()
		transport.WriteFrame(&wire, transport.MsgPut, body, 0) //nolint:errcheck // bytes.Buffer writes never fail
	})
	framed := bytes.Clone(wire.Bytes())
	var rd bytes.Reader
	var rbuf []byte
	m["transport.frame_read_ns"] = bulk(rounds, n, nil, func(int) {
		rd.Reset(framed)
		transport.ReadFrame(&rd, &rbuf, 0) //nolint:errcheck // reads back what WriteFrame wrote
	})

	return m, tcpRungs(m, val, keys[:rpcs])
}

// tcpRungs times the wire operations against a worker in another process.
func tcpRungs(m map[string]float64, val dataflow.Value, keys []wmm.Key) error {
	ctx := context.Background()
	p, err := spawnWorker("ladder")
	if err != nil {
		return err
	}
	defer p.stop()
	c, err := transport.DialTCP(ctx, p.addr, "ladder", transport.DialOptions{})
	if err != nil {
		return fmt.Errorf("dial ladder worker: %w (stderr: %s)", err, p.stderr.String())
	}
	defer c.Close()
	rpc := func(name string, div float64, op func(i int) error) error {
		us, err := each(len(keys), op)
		m[name] = us / div
		return err
	}
	if err := rpc("transport.tcp_ping_us", 1, func(int) error { return c.Ping(ctx) }); err != nil {
		return err
	}
	if err := rpc("transport.tcp_land_us", 1, func(i int) error {
		return c.Land(ctx, transport.Pacing{}, wmm.PutReq{Key: keys[i], Val: val, Consumers: 1})
	}); err != nil {
		return err
	}
	if err := rpc("transport.tcp_get_us", 1, func(i int) error {
		_, ok, err := c.Get(ctx, keys[i])
		if err == nil && !ok {
			err = fmt.Errorf("ladder worker lost %v", keys[i])
		}
		return err
	}); err != nil {
		return err
	}
	// ShipBatch of 8, per item: what batching would amortise a land to.
	ship := ladderBatches(keys, fanParts, val)
	if err := rpc("transport.tcp_ship_item_us", fanParts, func(i int) error {
		return c.ShipBatch(ctx, transport.Pacing{}, ship[i])
	}); err != nil {
		return err
	}
	if err := rpc("transport.tcp_release_us", 1, func(i int) error { return c.Release(ctx, keys[i].ReqID) }); err != nil {
		return err
	}

	// Head-of-line wait: Ping while 512 KiB ShipBatches occupy the same
	// Client, over the idle Ping.
	chunk := make([]byte, 64<<10)
	big := make([]wmm.PutReq, fanParts)
	for j := range big {
		big[j] = wmm.PutReq{Key: wmm.Key{ReqID: "ladder-hol", Fn: "f", Data: strconv.Itoa(j)},
			Val: dataflow.Value{Payload: chunk, Size: int64(len(chunk))}, Consumers: 1}
	}
	stop := make(chan struct{})
	var shipErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if shipErr = c.ShipBatch(ctx, transport.Pacing{}, big); shipErr != nil {
				return
			}
		}
	}()
	err = rpc("transport.hol_wait_us", 1, func(int) error { return c.Ping(ctx) })
	close(stop)
	wg.Wait()
	if err == nil {
		err = shipErr
	}
	if err != nil {
		return err
	}
	m["transport.hol_wait_us"] = max(m["transport.hol_wait_us"]-m["transport.tcp_ping_us"], 0)
	return c.Release(ctx, "ladder-hol")
}
