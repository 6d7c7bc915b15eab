package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/wmm"
)

// chunkReader yields the underlying data in fixed-size pieces, exercising
// ReadFrame's short-read handling (a TCP stream rarely delivers a frame in
// one Read).
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.n
	if n > len(c.data) {
		n = len(c.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// shortWriter accepts at most n bytes per Write call.
type shortWriter struct {
	bytes.Buffer
	n int
}

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		p = p[:w.n]
	}
	return w.Buffer.Write(p)
}

func TestFrameRoundTrip(t *testing.T) {
	bodies := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 7000)}
	for _, body := range bodies {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, MsgPut, body, 0); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(body), err)
		}
		var rbuf []byte
		mt, got, err := ReadFrame(&buf, &rbuf, 0)
		if err != nil {
			t.Fatalf("ReadFrame(%d bytes): %v", len(body), err)
		}
		if mt != MsgPut || !bytes.Equal(got, body) {
			t.Fatalf("round trip: type %v, %d bytes; want put, %d bytes", mt, len(got), len(body))
		}
	}
}

func TestFrameRoundTripChunkedReads(t *testing.T) {
	body := bytes.Repeat([]byte("payload"), 1000)
	framed := AppendFrame(nil, MsgPutBatch, body)
	for _, chunk := range []int{1, 3, 7, 4096} {
		r := &chunkReader{data: framed, n: chunk}
		var rbuf []byte
		mt, got, err := ReadFrame(r, &rbuf, 0)
		if err != nil || mt != MsgPutBatch || !bytes.Equal(got, body) {
			t.Fatalf("chunk=%d: type %v err %v, %d bytes", chunk, mt, err, len(got))
		}
	}
}

func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	body := []byte("hello world")
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgGet, body, 0); err != nil {
		t.Fatal(err)
	}
	if got := AppendFrame(nil, MsgGet, body); !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("AppendFrame diverges from WriteFrame: %x vs %x", got, buf.Bytes())
	}
}

// A writer that can only take a few bytes per call still receives the whole
// frame: WriteFrame relies on io.Writer's contract (short writes return
// errors), and bytes.Buffer never shortchanges — so this guards the frame
// bytes themselves under a pathological writer wrapper that loses data.
func TestWriteFrameShortWriteSurfaces(t *testing.T) {
	w := &shortWriter{n: 3}
	// A short write without an error violates io.Writer; WriteFrame cannot
	// detect it, but the framing must fail loudly at read time.
	WriteFrame(w, MsgPing, []byte("0123456789"), 0) //nolint:errcheck // exercising the corrupted-stream read below
	var rbuf []byte
	if _, _, err := ReadFrame(bytes.NewReader(w.Bytes()), &rbuf, 0); err == nil {
		t.Fatal("truncated stream read back as a whole frame")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	framed := AppendFrame(nil, MsgPut, []byte("some payload"))
	for cut := 0; cut < len(framed); cut++ {
		var rbuf []byte
		_, _, err := ReadFrame(bytes.NewReader(framed[:cut]), &rbuf, 0)
		if err == nil {
			t.Fatalf("cut=%d: no error", cut)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: err = %v, want EOF-ish", cut, err)
		}
	}
}

func TestReadFrameOversizeLength(t *testing.T) {
	framed := AppendFrame(nil, MsgPut, bytes.Repeat([]byte("z"), 1024))
	var rbuf []byte
	_, _, err := ReadFrame(bytes.NewReader(framed), &rbuf, 64)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameBadVersion(t *testing.T) {
	// The next version, and the previous one: a version-2 peer still sends
	// Get.Consume and expects HelloAck.Retains, so it is refused outright.
	for _, v := range []byte{FrameVersion + 1, 2} {
		framed := AppendFrame(nil, MsgPut, []byte("v"))
		framed[4] = v
		var rbuf []byte
		if _, _, err := ReadFrame(bytes.NewReader(framed), &rbuf, 0); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("version %d: err = %v, want ErrBadFrame", v, err)
		}
	}
}

func TestReadFrameRunt(t *testing.T) {
	// length 1 cannot hold version+type.
	raw := []byte{0, 0, 0, 1, FrameVersion}
	var rbuf []byte
	if _, _, err := ReadFrame(bytes.NewReader(raw), &rbuf, 0); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

func TestWriteFrameOversizeBody(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, MsgPutBatch, bytes.Repeat([]byte("q"), 100), 50)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversize write emitted %d bytes", buf.Len())
	}
}

func TestWireVersionPinned(t *testing.T) {
	pin := wireVersions[FrameVersion]
	if pin == "" {
		t.Fatalf("no fingerprint pinned for FrameVersion %d", FrameVersion)
	}
	want := fmt.Sprintf("wire:v%d:", FrameVersion)
	if !strings.HasPrefix(pin, want) {
		t.Fatalf("pin %q does not carry the %q prefix", pin, want)
	}
}

func TestWireStructRoundTrips(t *testing.T) {
	if h, err := decodeHello(appendHello(nil, Hello{Node: "n1"})); err != nil || h.Node != "n1" {
		t.Fatalf("Hello: %+v, %v", h, err)
	}
	reg := Register{Node: "w0", Addr: "127.0.0.1:9"}
	if r, err := DecodeRegister(AppendRegister(nil, reg)); err != nil || r != reg {
		t.Fatalf("Register: %+v, %v", r, err)
	}
	g := Get{ReqID: "req-1", Fn: "count", Data: "words@0<-split[0].out"}
	if got, err := decodeGet(appendGet(nil, g)); err != nil || got != g {
		t.Fatalf("Get: %+v, %v", got, err)
	}
	f := Found{Found: true, Payload: []byte("data")}
	if got, err := decodeFound(appendFound(nil, f)); err != nil || !got.Found || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("Found: %+v, %v", got, err)
	}
	sa := StatsAck{Puts: 1, MemHits: 2, DiskHits: 3, Misses: 4, ProactiveReleases: 5, Expirations: 6, PeakMemBytes: 1 << 30}
	if got, err := decodeStatsAck(appendStatsAck(nil, sa)); err != nil || got != sa {
		t.Fatalf("StatsAck: %+v, %v", got, err)
	}
	em := ErrMsg{Code: codeUnknownNode, Msg: "nope"}
	if got, err := decodeErrMsg(appendErrMsg(nil, em)); err != nil || got != em {
		t.Fatalf("ErrMsg: %+v, %v", got, err)
	}
}

func TestPutBatchRoundTrip(t *testing.T) {
	reqs := []wmm.PutReq{
		{
			Key:       wmm.Key{ReqID: "req-9", Fn: "merge", Data: "in@2<-map[1].out#r1"},
			Val:       dataflow.Value{Payload: []byte("abc"), Size: 3},
			Consumers: 1,
		},
		{
			Key:       wmm.Key{ReqID: "req-9", Fn: "merge", Data: "in@3<-map[2].out"},
			Val:       dataflow.Value{Payload: []byte{}, Size: 0},
			Consumers: 2,
		},
	}
	body := appendPutBatch(nil, 0xfeedface, reqs)
	got, traceID, err := decodePutBatch(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != 0xfeedface {
		t.Fatalf("trace id %#x, want 0xfeedface", traceID)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d reqs, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i].Key != reqs[i].Key || got[i].Consumers != reqs[i].Consumers || got[i].Val.Size != reqs[i].Val.Size {
			t.Fatalf("req %d: %+v vs %+v", i, got[i], reqs[i])
		}
		if !bytes.Equal(got[i].Val.Payload, reqs[i].Val.Payload) {
			t.Fatalf("req %d payload mismatch", i)
		}
	}
	// Decoded payloads must not alias the frame buffer (it is reused).
	for i := range body {
		body[i] = 0xff
	}
	if !bytes.Equal(got[0].Val.Payload, []byte("abc")) {
		t.Fatal("decoded payload aliases the frame buffer")
	}
}

func TestDecodePutBatchHostileCount(t *testing.T) {
	body := appendUvarint(nil, 0)     // trace id: unsampled
	body = appendUvarint(body, 1<<40) // claims a trillion puts, carries none
	if _, _, err := decodePutBatch(body, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

// appendPut encodes a whole Put message: the message-level TraceID, then
// the datum.
func appendPut(b []byte, m Put) []byte {
	b = appendUvarint(b, m.TraceID)
	b = appendString(b, m.ReqID)
	b = appendString(b, m.Fn)
	b = appendString(b, m.Data)
	b = appendUvarint(b, uint64(m.Consumers))
	b = appendVarint(b, m.Size)
	return appendBytes(b, m.Payload)
}

// TestPutTraceContextRoundTrip pins the frame-v2 trace field: a sampled
// put carries its id through encode/decode, an unsampled one reads back 0.
func TestPutTraceContextRoundTrip(t *testing.T) {
	p := Put{TraceID: 0x1234abcd5678ef90, ReqID: "req-3", Fn: "count", Data: "words", Consumers: 2, Size: 5, Payload: []byte("hello")}
	r := wireReader{b: appendPut(nil, p)}
	got := decodePut(&r)
	if err := r.done(); err != nil {
		t.Fatal(err)
	}
	if got.TraceID != p.TraceID || got.ReqID != p.ReqID || got.Fn != p.Fn || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("round trip %+v, want %+v", got, p)
	}

	// The Land path encodes the message-level trace id then the datum.
	req := wmm.PutReq{Key: wmm.Key{ReqID: "req-3", Fn: "count", Data: "words"},
		Val: dataflow.Value{Payload: []byte("hello"), Size: 5}, Consumers: 2}
	landBody := appendUvarint(nil, 0) // unsampled
	landBody = appendPutReq(landBody, req)
	r = wireReader{b: landBody}
	got = decodePut(&r)
	if err := r.done(); err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0 || got.Data != "words" {
		t.Fatalf("unsampled land decoded %+v", got)
	}
}

func TestDecoderTrailingGarbage(t *testing.T) {
	body := appendRelease(nil, Release{ReqID: "req-1"})
	body = append(body, 0xAA)
	if _, err := decodeRelease(body); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

// FuzzReadFrame hammers the frame reader and the body decoders with
// arbitrary bytes: nothing may panic, and every accepted frame must carry a
// consistent (type, body) pair.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, MsgPut, appendPut(nil, Put{
		ReqID: "r", Fn: "f", Data: "d", Payload: []byte("p"), Size: 1,
	})))
	f.Add(AppendFrame(nil, MsgPut, appendPut(nil, Put{
		TraceID: 0xdeadbeefcafe, ReqID: "r", Fn: "f", Data: "d", Payload: []byte("p"), Size: 1,
	})))
	f.Add(AppendFrame(nil, MsgPutBatch, appendPutBatch(nil, 0x77, []wmm.PutReq{{
		Key: wmm.Key{ReqID: "r", Fn: "f", Data: "d"},
		Val: dataflow.Value{Payload: []byte("p"), Size: 1},
	}})))
	f.Add(AppendFrame(nil, MsgGet, appendGet(nil, Get{ReqID: "r", Fn: "f", Data: "d"})))
	f.Add(AppendFrame(nil, MsgRegister, AppendRegister(nil, Register{Node: "w1", Addr: "127.0.0.1:9"})))
	f.Add(AppendFrame(nil, MsgStatsAck, appendStatsAck(nil, StatsAck{Puts: 1, MemHits: 1, ProactiveReleases: 1, PeakMemBytes: 64})))
	f.Add(AppendFrame(nil, MsgHelloAck, nil))
	f.Add([]byte{0, 0, 0, 2, FrameVersion, byte(MsgClear)})
	f.Add([]byte{0, 0, 0, 3, 2, byte(MsgHelloAck), 1}) // a version-2 HelloAck{Retains}: refused
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rbuf []byte
		mt, body, err := ReadFrame(bytes.NewReader(data), &rbuf, 1<<16)
		if err != nil {
			return
		}
		// Whatever parsed must decode without panicking; errors are fine.
		switch mt {
		case MsgHello:
			decodeHello(body) //nolint:errcheck
		case MsgRegister:
			DecodeRegister(body) //nolint:errcheck
		case MsgPutBatch:
			decodePutBatch(body, nil) //nolint:errcheck
		case MsgPut:
			r := wireReader{b: body}
			decodePut(&r)
		case MsgGet:
			decodeGet(body) //nolint:errcheck
		case MsgFound:
			decodeFound(body) //nolint:errcheck
		case MsgRelease:
			decodeRelease(body) //nolint:errcheck
		case MsgStatsAck:
			decodeStatsAck(body) //nolint:errcheck
		case MsgPong:
			decodePong(body) //nolint:errcheck
		case MsgErr:
			decodeErrMsg(body) //nolint:errcheck
		}
	})
}
