package main_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// metricValue extracts one series value from a Prometheus text body
// (-1 when the series is absent).
func metricValue(body, series string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b)
}

// debugRequests is the /debug/requests body shape (obs.Handler).
type debugRequests struct {
	Origin string `json:"origin"`
	Spans  []struct {
		TraceID string `json:"trace_id"`
		ReqID   string `json:"req_id"`
		Stages  []struct {
			Kind string `json:"kind"`
		} `json:"stages"`
	} `json:"spans"`
}

// TestObsEndpointsDuringStorm runs the two-process cluster with the
// observability plane on and asserts, against the live processes mid-storm:
// the worker's /metrics exports transport and wmm series that actually
// moved, the coordinator's exports the engine series, and a sampled
// request's trace id appears in BOTH processes' /debug/requests — the
// trace context crossed the wire.
func TestObsEndpointsDuringStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := filepath.Join(t.TempDir(), "node")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	const requests = 200
	var coordErr bytes.Buffer
	coord := exec.Command(bin, "-mode=coord", "-listen=127.0.0.1:0",
		"-workers=2", fmt.Sprintf("-requests=%d", requests), "-pace=5ms",
		"-http=127.0.0.1:0", "-sample=8")
	coord.Stderr = &coordErr
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()                                                //nolint:errcheck
	timeout := time.AfterFunc(2*time.Minute, func() { coord.Process.Kill() }) //nolint:errcheck
	defer timeout.Stop()

	lines := bufio.NewScanner(stdout)
	readUntil := func(prefix string) string {
		t.Helper()
		for lines.Scan() {
			if strings.HasPrefix(lines.Text(), prefix) {
				return lines.Text()
			}
		}
		t.Fatalf("coordinator exited before %q\nstderr:\n%s", prefix, coordErr.String())
		return ""
	}

	addr := strings.TrimPrefix(readUntil("coord listening on "), "coord listening on ")

	workerObs := make([]string, 2)
	for i := range workerObs {
		w := exec.Command(bin, "-mode=worker", fmt.Sprintf("-name=w%d", i+1),
			"-listen=127.0.0.1:0", "-coord="+addr, "-http=127.0.0.1:0")
		wout, err := w.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			w.Process.Kill() //nolint:errcheck
			w.Wait()         //nolint:errcheck
		}()
		ws := bufio.NewScanner(wout)
		for ws.Scan() {
			if rest, ok := strings.CutPrefix(ws.Text(), "obs listening on "); ok {
				workerObs[i] = rest
				break
			}
		}
		if workerObs[i] == "" {
			t.Fatalf("worker %d printed no obs address", i+1)
		}
	}

	coordObs := strings.TrimPrefix(readUntil("obs listening on "), "obs listening on ")
	readUntil("storm started")
	// Let a chunk of the storm land, then interrogate the live processes
	// (the 5ms pace keeps the coordinator busy for ~1s).
	time.Sleep(500 * time.Millisecond)

	coordMetrics := httpGet(t, "http://"+coordObs+"/metrics")
	// core_dlu_batch_items_count: the real cluster ships edge-batched.
	for _, series := range []string{"core_requests_total", "core_completed_total",
		"transport_frames_sent_total", "core_request_latency_ns_count", "core_dlu_batch_items_count"} {
		if v := metricValue(coordMetrics, series); v <= 0 {
			t.Errorf("coordinator /metrics: %s = %v, want > 0", series, v)
		}
	}
	workerMetrics := httpGet(t, "http://"+workerObs[0]+"/metrics")
	for _, series := range []string{"transport_server_frames_total",
		"transport_server_bytes_total", "wmm_puts_total"} {
		if v := metricValue(workerMetrics, series); v <= 0 {
			t.Errorf("worker /metrics: %s = %v, want > 0", series, v)
		}
	}
	if !strings.Contains(workerMetrics, `wmm_mem_bytes{node="w1"}`) {
		t.Error("worker /metrics missing per-node wmm_mem_bytes gauge")
	}

	var coordSpans, workerSpans debugRequests
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+coordObs+"/debug/requests")), &coordSpans); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+workerObs[0]+"/debug/requests")), &workerSpans); err != nil {
		t.Fatal(err)
	}
	if coordSpans.Origin != "coord" {
		t.Errorf("coordinator span origin = %q", coordSpans.Origin)
	}
	if workerSpans.Origin != "worker/w1" {
		t.Errorf("worker span origin = %q", workerSpans.Origin)
	}
	if len(coordSpans.Spans) == 0 {
		t.Fatal("coordinator recorded no sampled spans")
	}
	// Cross-process correlation: a sampled request's trace id must appear
	// on both sides of the wire. The second worker may have hosted all of a
	// given sampled request's data, so check the union of both workers.
	var worker2Spans debugRequests
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+workerObs[1]+"/debug/requests")), &worker2Spans); err != nil {
		t.Fatal(err)
	}
	workerIDs := make(map[string]bool)
	for _, sp := range append(workerSpans.Spans, worker2Spans.Spans...) {
		workerIDs[sp.TraceID] = true
	}
	correlated := 0
	for _, sp := range coordSpans.Spans {
		if workerIDs[sp.TraceID] {
			correlated++
		}
	}
	if correlated == 0 {
		t.Fatalf("no trace id correlates across processes (coord %d spans, workers %d)",
			len(coordSpans.Spans), len(workerIDs))
	}
	t.Logf("correlated %d/%d sampled requests across processes", correlated, len(coordSpans.Spans))

	var sum stormSummary
	if err := json.Unmarshal([]byte(readUntil("{")), &sum); err != nil {
		t.Fatalf("summary: %v", err)
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator failed: %v\nstderr:\n%s", err, coordErr.String())
	}
	if sum.Completed*100 < int64(requests)*95 {
		t.Fatalf("only %d/%d requests completed", sum.Completed, requests)
	}
}
