package telemetry

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	GetCounter("httptest_requests_total", "vendor", "Huawei").Add(2)
	rec := EnableTracing(8)
	defer DisableTracing()
	_, s := Span(context.Background(), "http-test-span")
	s.End()
	_ = rec

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, `httptest_requests_total{vendor="Huawei"} 2`) {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	code, body = get(t, base+"/debug/vars")
	if code != 200 || !strings.Contains(body, ExpvarName) {
		t.Fatalf("/debug/vars: code=%d, registry var missing", code)
	}
	code, body = get(t, base+"/debug/traces")
	if code != 200 || !strings.Contains(body, "http-test-span") {
		t.Fatalf("/debug/traces: code=%d body=%q", code, body)
	}
	code, _ = get(t, base+"/debug/pprof/")
	if code != 200 {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
}

func TestTracesEndpointDisabled(t *testing.T) {
	DisableTracing()
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, "http://"+srv.Addr()+"/debug/traces")
	if code != 200 || !strings.Contains(body, `"enabled":false`) {
		t.Fatalf("disabled traces: code=%d body=%q", code, body)
	}
}

// header fetches a URL and returns its status and Content-Type.
func header(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Content-Type")
}

func TestEndpointContentTypes(t *testing.T) {
	DisableTracing()
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if _, ct := header(t, base+"/metrics"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	// Both the disabled and enabled traces responses are JSON.
	if _, ct := header(t, base+"/debug/traces"); ct != "application/json" {
		t.Errorf("/debug/traces (disabled) Content-Type = %q", ct)
	}
	EnableTracing(8)
	defer DisableTracing()
	if _, ct := header(t, base+"/debug/traces"); ct != "application/json" {
		t.Errorf("/debug/traces (enabled) Content-Type = %q", ct)
	}
}

func TestLastRunEndpoint(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + srv.Addr() + "/debug/lastrun"

	if code, body := get(t, url); code != http.StatusNotFound || !strings.Contains(body, "no run recorded") {
		t.Fatalf("before any run: code=%d body=%q", code, body)
	}
	SetLastRun(map[string]string{"run_id": "abc123"})
	code, body := get(t, url)
	if code != 200 || !strings.Contains(body, "abc123") {
		t.Fatalf("after SetLastRun: code=%d body=%q", code, body)
	}
	if _, ct := header(t, url); ct != "application/json" {
		t.Errorf("/debug/lastrun Content-Type = %q", ct)
	}
}

// TestConcurrentWriteToVsObserve hammers the registry's text exposition
// while counters and histograms are being updated — run with -race.
func TestConcurrentWriteToVsObserve(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				GetCounter("httptest_hammer_total", "g", strings.Repeat("g", g+1)).Inc()
				GetHistogram("httptest_hammer_seconds", nil).Observe(float64(i%10) / 100)
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		if _, err := Default().WriteTo(io.Discard); err != nil {
			t.Errorf("WriteTo: %v", err)
		}
		Default().FlatSnapshot()
	}
	close(stop)
	wg.Wait()
}

// TestServerShutdownNoLeak asserts Close reclaims the server's goroutines.
func TestServerShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get(t, "http://"+srv.Addr()+"/metrics")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		// Idle HTTP keep-alive goroutines drain asynchronously after Close;
		// poll until the count settles back.
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d two seconds after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
