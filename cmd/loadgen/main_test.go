package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nassim/internal/benchdiff"
	"nassim/internal/serve"
)

// TestFailedWarmRequestsAreNotSamples runs loadgen against a daemon stub
// that answers the dedup and warm-up requests but fails three of every
// four warm-phase POSTs: the failures count as errors, and the latency
// rows summarize only the successful requests.
func TestFailedWarmRequestsAreNotSamples(t *testing.T) {
	const concurrency, requests = 4, 40
	vendors := []string{"Huawei"}
	var posts atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/stats":
			json.NewEncoder(w).Encode(serve.Stats{})
		case "/v1/assimilate":
			if k := posts.Add(1) - int64(concurrency+len(vendors)); k > 0 && k%4 != 0 {
				http.Error(w, "injected failure", http.StatusServiceUnavailable)
				return
			}
			time.Sleep(time.Millisecond)
			w.Write([]byte("{}"))
		default:
			http.NotFound(w, r)
		}
	}))
	defer stub.Close()

	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	addr := strings.TrimPrefix(stub.URL, "http://")
	if err := run(addr, out, "", vendors, 0.02, requests, concurrency, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := benchdiff.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range rows {
		got[r.Name] = r.Value
	}
	if got["errors"] != 30 {
		t.Errorf("errors = %v, want 30", got["errors"])
	}
	for _, name := range []string{"latency_p50_ms", "latency_p99_ms", "latency_mean_ms"} {
		if got[name] < 1 {
			t.Errorf("%s = %v ms, want at least the stub's 1 ms per successful request", name, got[name])
		}
	}
}
