package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nassim"
)

// newRealServer builds a server over the production runner at test
// scale.
func newRealServer(t *testing.T, workers int) *Server {
	t.Helper()
	s, err := NewServer(Config{
		Workers: workers,
		Runner:  NewRunner(RunnerConfig{Workers: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// TestServedBytesMatchDirect is the golden criterion: the daemon's
// response bytes are exactly what a direct library call produces — the
// service adds transport, never content.
func TestServedBytesMatchDirect(t *testing.T) {
	req := Request{Vendors: []string{"Huawei", "Nokia"}, Scale: 0.02, Validate: true}

	// Direct path: library call plus the same response builder.
	res, err := nassim.Assimilate(context.Background(), nassim.Options{
		Vendors: req.Vendors, Scale: req.Scale, Workers: 2, Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := BuildResponse(req, res.Results)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := EncodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}

	// Served path: fresh server, fresh artifact cache.
	s := newRealServer(t, 2)
	served, dedup, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if dedup != DedupMiss {
		t.Errorf("first submit dedup %q; want %q", dedup, DedupMiss)
	}
	if !bytes.Equal(served, direct) {
		t.Errorf("served bytes differ from direct library bytes (%d vs %d bytes)",
			len(served), len(direct))
	}
	var doc Response
	if err := json.Unmarshal(served, &doc); err != nil {
		t.Fatalf("served response is not valid JSON: %v", err)
	}
	if doc.Schema != ResponseSchema {
		t.Errorf("schema %q; want %q", doc.Schema, ResponseSchema)
	}
	if doc.Key != req.Key() {
		t.Errorf("response key %q != request key %q", doc.Key, req.Key())
	}
	if len(doc.Vendors) != 2 || doc.Vendors[0].Vendor != "Huawei" {
		t.Errorf("vendors %v", doc.Vendors)
	}
	if doc.Vendors[0].PagesHash == "" || doc.Vendors[0].Corpora == 0 {
		t.Error("vendor result missing pages hash or corpora count")
	}
}

// TestWarmServeDecodesZeroJSON extends the pipeline's warm-path
// guarantee to the daemon: a repeated request is served from the result
// cache with zero response encodes and zero pipeline executions — stored
// bytes straight out. (The pipeline has no JSON artifact decoder to run.)
func TestWarmServeDecodesZeroJSON(t *testing.T) {
	s := newRealServer(t, 2)
	req := Request{Vendors: []string{"Huawei"}, Scale: 0.02}

	cold, dedup, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if dedup != DedupMiss {
		t.Fatalf("cold submit dedup %q; want %q", dedup, DedupMiss)
	}

	encBefore := ResponseEncodes()
	execBefore := s.Stats().Executions

	warm, dedup, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if dedup != DedupCache {
		t.Errorf("warm submit dedup %q; want %q", dedup, DedupCache)
	}
	if !bytes.Equal(warm, cold) {
		t.Error("warm bytes differ from cold bytes")
	}
	if d := ResponseEncodes() - encBefore; d != 0 {
		t.Errorf("warm serve performed %d response encodes; want 0", d)
	}
	if d := s.Stats().Executions - execBefore; d != 0 {
		t.Errorf("warm serve ran the pipeline %d times; want 0", d)
	}
}

// TestHTTPEndpoints exercises the full HTTP surface against a fast
// counting runner.
func TestHTTPEndpoints(t *testing.T) {
	var execs atomic.Int64
	s, err := NewServer(Config{Workers: 2, Runner: countingRunner(&execs, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	post := func(body string, query string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/assimilate"+query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Submit, then re-submit: miss then cache, same body, provenance in
	// headers only.
	r1 := post(`{"vendors":["Huawei"],"scale":0.02}`, "")
	b1, _ := io.ReadAll(r1.Body)
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get(HeaderDedup); got != DedupMiss {
		t.Errorf("first POST dedup header %q; want %q", got, DedupMiss)
	}
	key := r1.Header.Get(HeaderKey)
	if key == "" {
		t.Fatal("missing key header")
	}
	r2 := post(`{"vendors":["Huawei"],"scale":0.02}`, "")
	b2, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if got := r2.Header.Get(HeaderDedup); got != DedupCache {
		t.Errorf("second POST dedup header %q; want %q", got, DedupCache)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("cached response body differs")
	}

	// Result lookup by key.
	r3, err := http.Get(ts.URL + "/v1/result/" + key)
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := io.ReadAll(r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK || !bytes.Equal(b3, b1) {
		t.Errorf("GET result status %d, match=%v", r3.StatusCode, bytes.Equal(b3, b1))
	}
	if r4, _ := http.Get(ts.URL + "/v1/result/deadbeef"); r4.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key status %d; want 404", r4.StatusCode)
	}

	// Invalid request: 400 before the queue.
	if r5 := post(`{"vendors":["NoSuchVendor"]}`, ""); r5.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid vendor status %d; want 400", r5.StatusCode)
	}
	// Oversized body: 413 before admission, and nothing runs.
	execBefore := execs.Load()
	huge := `{"vendors":["` + strings.Repeat("A", MaxRequestBytes) + `"]}`
	if r := post(huge, ""); r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status %d; want 413", r.StatusCode)
	}
	if d := execs.Load() - execBefore; d != 0 {
		t.Errorf("oversized body ran the pipeline %d times; want 0", d)
	}

	// Stats.
	r6, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(r6.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r6.Body.Close()
	if st.Requests != 2 || st.Executions != 1 || st.DedupCached != 1 {
		t.Errorf("stats %+v; want requests=2 executions=1 dedup_cached=1", st)
	}

	// Manifest carries the Serve block.
	r7, err := http.Get(ts.URL + "/v1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(r7.Body)
	r7.Body.Close()
	var manifest struct {
		Schema string `json:"schema"`
		Serve  *struct {
			Requests   int64 `json:"requests"`
			Executions int64 `json:"executions"`
		} `json:"serve"`
	}
	if err := json.Unmarshal(mb, &manifest); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if manifest.Serve == nil || manifest.Serve.Executions != 1 {
		t.Errorf("manifest serve block %+v", manifest.Serve)
	}

	// Health.
	if r8, _ := http.Get(ts.URL + "/healthz"); r8.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", r8.StatusCode)
	}

	// SSE stream: a distinct request streamed end-to-end finishes with a
	// result event.
	r9 := post(`{"vendors":["Nokia"],"scale":0.02}`, "?stream=1")
	sb, _ := io.ReadAll(r9.Body)
	r9.Body.Close()
	if ct := r9.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("stream content type %q", ct)
	}
	body := string(sb)
	for _, want := range []string{"event: queued", "event: started", "event: result"} {
		if !strings.Contains(body, want) {
			t.Errorf("SSE stream missing %q:\n%s", want, body)
		}
	}
}

// TestHTTPDrainingReturns503 pins the drain contract at the HTTP layer.
func TestHTTPDrainingReturns503(t *testing.T) {
	var execs atomic.Int64
	s, err := NewServer(Config{Workers: 1, Runner: countingRunner(&execs, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/assimilate", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining POST status %d; want 503", resp.StatusCode)
	}
	hz, _ := http.Get(ts.URL + "/healthz")
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status %d; want 503", hz.StatusCode)
	}
}
