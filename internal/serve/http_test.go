package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

const okBody = `{"algorithm":"ring-allreduce","nodes":1,"gpus_per_node":4,"tenant":"acme"}`

func TestHTTPCompile(t *testing.T) {
	h := Handler(New(Config{}))
	w := post(t, h, "/v1/compile", okBody)
	if w.Code != http.StatusOK {
		t.Fatalf("compile returned %d: %s", w.Code, w.Body)
	}
	var resp CompileResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Backend != "ResCCL" || resp.NTBs <= 0 || resp.CacheHit {
		t.Fatalf("unexpected body: %+v", resp)
	}
	var again CompileResponse
	if err := json.Unmarshal(post(t, h, "/v1/compile", okBody).Body.Bytes(), &again); err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatalf("second compile missed the cache: %+v", again)
	}
}

func TestHTTPSimulateAndAnalyze(t *testing.T) {
	h := Handler(New(Config{}))
	w := post(t, h, "/v1/simulate", `{"algorithm":"ring-allreduce","nodes":1,"gpus_per_node":4,"buffer_bytes":1048576}`)
	if w.Code != http.StatusOK {
		t.Fatalf("simulate returned %d: %s", w.Code, w.Body)
	}
	var sres SimulateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sres); err != nil {
		t.Fatal(err)
	}
	if sres.CompletionUS <= 0 || sres.Events <= 0 {
		t.Fatalf("degenerate simulate body: %+v", sres)
	}

	w = post(t, h, "/v1/analyze", okBody)
	if w.Code != http.StatusOK {
		t.Fatalf("analyze returned %d: %s", w.Code, w.Body)
	}
	var ares AnalyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ares); err != nil {
		t.Fatal(err)
	}
	if !ares.Clean {
		t.Fatalf("expert plan dirty over HTTP: %+v", ares)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	h := Handler(New(Config{}))
	cases := []struct {
		name, path, body string
	}{
		{"malformed json", "/v1/compile", `{"algorithm":`},
		{"unknown field", "/v1/compile", `{"algorithmz":"ring-allreduce"}`},
		{"unknown algorithm", "/v1/compile", `{"algorithm":"nope","nodes":1,"gpus_per_node":4}`},
		{"bad shape", "/v1/compile", `{"algorithm":"ring-allreduce","nodes":0,"gpus_per_node":0}`},
		{"rank product overflows", "/v1/compile", `{"algorithm":"hm-allreduce","nodes":4611686018427387904,"gpus_per_node":4}`},
		{"oversized node", "/v1/simulate", `{"algorithm":"hm-allreduce","nodes":3,"gpus_per_node":4611686018427387904}`},
		{"too many spines", "/v1/analyze", `{"algorithm":"ring-allreduce","nodes":2,"gpus_per_node":4,"fabric":"clos","spines":1000000}`},
		{"negative buffer", "/v1/simulate", `{"algorithm":"ring-allreduce","nodes":1,"gpus_per_node":4,"buffer_bytes":-5}`},
		{"negative chunk", "/v1/simulate", `{"algorithm":"ring-allreduce","nodes":1,"gpus_per_node":4,"chunk_bytes":-1}`},
		{"negative analyze buffer", "/v1/analyze", `{"algorithm":"ring-allreduce","nodes":1,"gpus_per_node":4,"buffer_bytes":-5}`},
		{"tenant ID over 64 bytes", "/v1/compile", `{"algorithm":"ring-allreduce","nodes":1,"gpus_per_node":4,"tenant":"` + strings.Repeat("t", 65) + `"}`},
		{"buffer over 1 TiB", "/v1/simulate", `{"algorithm":"ring-allreduce","nodes":1,"gpus_per_node":4,"buffer_bytes":1099511627777}`},
		{"analyze buffer over 1 TiB", "/v1/analyze", `{"algorithm":"ring-allreduce","nodes":1,"gpus_per_node":4,"buffer_bytes":9223372036854775807}`},
		{"too many simulated instances", "/v1/simulate", `{"algorithm":"ring-allreduce","nodes":1,"gpus_per_node":4,"backend":"nccl","buffer_bytes":1073741824,"chunk_bytes":64,"deadline_ms":100}`},
	}
	for _, tc := range cases {
		if w := post(t, h, tc.path, tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, w.Code, w.Body)
		}
	}
}

func TestHTTPShedStatusMapping(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 1, MaxQueue: 1, TenantQuota: 1, QueueBudget: -1, WrapBackend: g.wrap})
	h := Handler(s)

	// Occupy the only worker.
	bg := make(chan *httptest.ResponseRecorder, 1)
	go func() { bg <- post(t, h, "/v1/compile", okBody) }()
	<-g.entered

	// Same tenant again → quota → 429 with Retry-After.
	w := post(t, h, "/v1/compile", okBody)
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
		t.Fatalf("quota response: %d %v", w.Code, w.Header())
	}
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Kind != "quota" {
		t.Fatalf("quota body %s (err %v)", w.Body, err)
	}

	// Different tenant queues (slot busy); a third fills the queue → 429.
	b2 := strings.Replace(okBody, "acme", "globex", 1)
	bg2 := make(chan *httptest.ResponseRecorder, 1)
	go func() { bg2 <- post(t, h, "/v1/compile", b2) }()
	waitFor(t, "globex to queue", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.waiting == 1
	})
	b3 := strings.Replace(okBody, "acme", "initech", 1)
	if w := post(t, h, "/v1/compile", b3); w.Code != http.StatusTooManyRequests {
		t.Fatalf("overload response: %d %s", w.Code, w.Body)
	}

	close(g.release)
	for _, ch := range []chan *httptest.ResponseRecorder{bg, bg2} {
		if w := <-ch; w.Code != http.StatusOK {
			t.Fatalf("background request: %d %s", w.Code, w.Body)
		}
	}
}

func TestHTTPDeadlineMapsTo504(t *testing.T) {
	g := newGate() // never released
	h := Handler(New(Config{WrapBackend: g.wrap}))
	body := `{"algorithm":"ring-allreduce","nodes":1,"gpus_per_node":4,"deadline_ms":20}`
	w := post(t, h, "/v1/compile", body)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline response: %d %s", w.Code, w.Body)
	}
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Kind != "deadline" {
		t.Fatalf("deadline body %s (err %v)", w.Body, err)
	}
}

func TestHTTPDrainingMapsTo503(t *testing.T) {
	s := New(Config{})
	h := Handler(s)
	if w := get(t, h, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", w.Code)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w := get(t, h, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d", w.Code)
	}
	// Liveness stays up through drain so the supervisor doesn't kill a
	// draining process.
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz after drain: %d", w.Code)
	}
	w := post(t, h, "/v1/compile", okBody)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("draining response: %d %v", w.Code, w.Header())
	}
}

func TestHTTPMetricsSnapshot(t *testing.T) {
	s := New(Config{})
	h := Handler(s)
	if w := post(t, h, "/v1/compile", okBody); w.Code != http.StatusOK {
		t.Fatalf("compile: %d %s", w.Code, w.Body)
	}
	w := get(t, h, "/metricsz")
	if w.Code != http.StatusOK {
		t.Fatalf("metricsz: %d", w.Code)
	}
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metricsz body not JSON: %v\n%s", err, w.Body)
	}
	if snap.Counters["serve.completed"] != 1 || snap.Counters["serve.tenant.acme.requests"] != 1 {
		t.Fatalf("unexpected counters: %v", snap.Counters)
	}
	if _, ok := snap.Gauges["serve.latency_ms.p50"]; !ok {
		t.Fatalf("latency gauges missing: %v", snap.Gauges)
	}
	// The snapshot is deterministic: two reads with no traffic in
	// between render byte-identical bodies.
	again := get(t, h, "/metricsz")
	if !bytes.Equal(w.Body.Bytes(), again.Body.Bytes()) {
		t.Fatal("metricsz snapshot not deterministic across reads")
	}
}

func TestHTTPMethodAndPathErrors(t *testing.T) {
	h := Handler(New(Config{}))
	if w := get(t, h, "/v1/compile"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET compile: %d, want 405", w.Code)
	}
	if w := get(t, h, "/v1/nope"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", w.Code)
	}
}

// TestHTTPClientGone maps a caller-cancelled request to the 499
// convention (the body is never delivered, but logs distinguish it).
func TestHTTPClientGone(t *testing.T) {
	g := newGate()
	defer close(g.release)
	h := Handler(New(Config{WrapBackend: g.wrap}))
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/compile", strings.NewReader(okBody)).WithContext(ctx)
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(w, req)
		close(done)
	}()
	<-g.entered
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after client cancel")
	}
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("client-gone response: %d, want %d", w.Code, StatusClientClosedRequest)
	}
}
