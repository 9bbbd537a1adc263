package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// TestSlowBodyDoesNotHoldAdmissionSlot pins the body-read-before-admit
// contract: a client trickling a raw tensor upload must not occupy a
// MaxInFlight slot while its transfer is in progress, so a fast request
// arriving mid-trickle is admitted normally even at MaxInFlight 1.
func TestSlowBodyDoesNotHoldAdmissionSlot(t *testing.T) {
	fake := newFakeEngine()
	srv, ts := newTestServer(t, Config{Engine: fake, MaxInFlight: 1})

	viewVals := dataset.ImageC * dataset.ImageH * dataset.ImageW
	payload := make([]byte, 2*viewVals*4) // Devices defaults to 2 in newTestServer
	pr, pw := io.Pipe()

	done := make(chan int, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", pr)
		if err != nil {
			done <- 0
			return
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.ContentLength = int64(len(payload))
		resp, err := ts.Client().Do(req)
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()

	// io.Pipe writes block until the reader consumes them, so returning
	// from this Write proves the handler is inside its body read.
	if _, err := pw.Write(payload[:len(payload)/2]); err != nil {
		t.Fatal(err)
	}

	// The slow upload is mid-transfer; a fast request must still be
	// admitted (the old code held the only slot and answered 503 here).
	resp := doClassify(t, ts, "", classifyBody(1), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast request during slow upload = %d, want 200", resp.StatusCode)
	}

	if _, err := pw.Write(payload[len(payload)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("slow upload finished with %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow upload never completed")
	}
	if got := srv.Metrics().InFlight.Value(); got != 0 {
		t.Errorf("inflight after drain = %d, want 0", got)
	}
}

// TestMalformedBodyIsNotShedWork: a request rejected for a bad body is
// never admitted, so it must not increment the shed counters or carry a
// shed-level header.
func TestMalformedBodyIsNotShedWork(t *testing.T) {
	srv, ts := newTestServer(t, Config{Engine: newFakeEngine()})
	resp := doClassify(t, ts, "", strings.NewReader("nonsense{"), "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(shedLevelHeader); got != "" {
		t.Errorf("rejected body carries %s=%q", shedLevelHeader, got)
	}
	m := srv.Metrics()
	for _, level := range []string{"normal", "prefer-edge", "local-only"} {
		if n := m.ShedRequests.Value(level); n != 0 {
			t.Errorf("ShedRequests[%s] = %d after a malformed body, want 0", level, n)
		}
	}
	if got := m.InFlight.Value(); got != 0 {
		t.Errorf("inflight = %d, want 0", got)
	}
}

// TestPanicIsLoggedAndCounted pins panic observability: a panicking
// request still produces an access-log line and increments
// ddnn_http_responses_total{code="500"}.
func TestPanicIsLoggedAndCounted(t *testing.T) {
	fake := newFakeEngine()
	fake.panics = true
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := slog.New(slog.NewTextHandler(lockedWriter{&logMu, &logBuf}, nil))
	srv, ts := newTestServer(t, Config{Engine: fake, Logger: logger})

	resp := doClassify(t, ts, "", classifyBody(1), "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if got := srv.Metrics().Responses.Value("500"); got != 1 {
		t.Errorf(`Responses["500"] = %d, want 1`, got)
	}
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logged, "handler panic") {
		t.Error("panic line missing from the log")
	}
	if !strings.Contains(logged, "http request") || !strings.Contains(logged, "status=500") {
		t.Errorf("access-log line for the panicking request missing; log:\n%s", logged)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// headerCounter counts WriteHeader calls, standing in for net/http's
// "superfluous response.WriteHeader" complaint.
type headerCounter struct {
	http.ResponseWriter
	calls int
}

func (h *headerCounter) WriteHeader(status int) {
	h.calls++
	h.ResponseWriter.WriteHeader(status)
}

// TestRecoverAfterWriteSkips500: when a handler panics after starting
// its response, the recovery middleware must not write a second status
// line.
func TestRecoverAfterWriteSkips500(t *testing.T) {
	s := &Server{metrics: NewMetrics(), logger: quietLogger()}
	h := s.withRecover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"partial": "yes"})
		panic("after write")
	}))
	rec := httptest.NewRecorder()
	hc := &headerCounter{ResponseWriter: rec}
	h.ServeHTTP(hc, httptest.NewRequest(http.MethodGet, "/", nil))
	if hc.calls != 1 {
		t.Fatalf("WriteHeader called %d times, want 1", hc.calls)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want the handler's 200", rec.Code)
	}
}

// TestParseTokensLongLines: lines beyond bufio.Scanner's 64KB default
// must parse, and a line over the 1MB cap must fail with the line
// number, not an opaque scanner error.
func TestParseTokensLongLines(t *testing.T) {
	long := strings.Repeat("x", 100*1024)
	a, err := ParseTokens(strings.NewReader("big:" + long + "\n"))
	if err != nil {
		t.Fatalf("100KB token rejected: %v", err)
	}
	if c, ok := a.Identify(long); !ok || c != "big" {
		t.Errorf("Identify(long token) = %q, %v", c, ok)
	}

	huge := "ok:fine\nbad:" + strings.Repeat("y", maxTokenLine+1) + "\n"
	_, err = ParseTokens(strings.NewReader(huge))
	if err == nil {
		t.Fatal("over-long line accepted")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("err = %v, want bufio.ErrTooLong", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want the failing line number", err)
	}
}

// TestExitLatencyObserved: the ExitObserved instrumentation hook must
// feed the per-exit latency histogram, not drop its latency argument.
func TestExitLatencyObserved(t *testing.T) {
	m := NewMetrics()
	in := m.Instrumentation()
	in.ExitObserved(wire.ExitLocal, 5*time.Millisecond)
	in.ExitObserved(wire.ExitCloud, 20*time.Millisecond)
	if got := m.ExitLatency.Count("local"); got != 1 {
		t.Errorf(`ExitLatency.Count("local") = %d, want 1`, got)
	}
	if got := m.ExitLatency.Count("cloud"); got != 1 {
		t.Errorf(`ExitLatency.Count("cloud") = %d, want 1`, got)
	}
	var buf bytes.Buffer
	if err := m.reg.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ddnn_exit_latency_seconds") {
		t.Error("ddnn_exit_latency_seconds missing from the exposition")
	}
}

// TestPresentFieldSerialized: classify responses expose the observed
// device-presence mask.
func TestPresentFieldSerialized(t *testing.T) {
	res := cluster.Result{SampleID: 1, Class: 2, Exit: wire.ExitLocal, Probs: []float32{0, 1}, Present: []bool{true, false}}
	raw, err := json.Marshal(toResponse(res, cluster.ShedNone))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	p, ok := m["present"].([]any)
	if !ok || len(p) != 2 || p[0] != true || p[1] != false {
		t.Errorf("present = %v", m["present"])
	}
}
