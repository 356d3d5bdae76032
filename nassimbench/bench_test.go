package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nassim/internal/clisyntax"
	"nassim/internal/telemetry"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{100, 90, 10, true},
		{99, 90, 9, false},
		{50, 90, 5, false},
		{1000, 99, 10, true},
		{500, 99, 5, false},
		{0, 99, 0, false},
	} {
		_, beyond, ok := tailPercentile(seq(tc.n), tc.p)
		if beyond != tc.beyond || ok != tc.ok {
			t.Errorf("n=%d p%v: beyond=%d ok=%v, want %d %v", tc.n, tc.p, beyond, ok, tc.beyond, tc.ok)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Nearest rank: a percentile is always an observed value.
	for _, tc := range []struct{ n, p, want float64 }{{4, 50, 2}, {11, 90, 10}, {100, 90, 90}, {3, 100, 3}} {
		if got := percentile(seq(int(tc.n)), tc.p); got != tc.want {
			t.Errorf("p%v of 1..%v = %v, want %v", tc.p, tc.n, got, tc.want)
		}
	}
}

func TestHotCheck(t *testing.T) {
	want := []byte(`{"a":1}`)
	if err := checkHot(200, []byte(`{"a":1}`), want); err != nil {
		t.Errorf("identical 200 response rejected: %v", err)
	}
	if err := checkHot(500, want, want); err == nil {
		t.Error("non-200 response accepted")
	}
	if err := checkHot(200, []byte(`{"a":2}`), want); err == nil {
		t.Error("byte-mismatched response accepted")
	}
}

func missDoc(key, vendors string) []byte {
	return []byte("{\n  \"schema\": \"s\",\n  \"key\": \"" + key + "\",\n  \"request\": {\n    \"vendors\": [\n      \"Huawei\"\n    ],\n    \"seed\": 1\n  },\n  \"vendors\": " + vendors + "\n}\n")
}

func TestMissCheckComparesOnlyVendorsBlock(t *testing.T) {
	setup := missDoc("k0", "[\n    {\"vendor\": \"Huawei\"}\n  ]")
	want, ok := vendorsBlock(setup)
	if !ok {
		t.Fatal("no vendors block in set-up document")
	}
	if strings.Contains(string(want), "Huawei\"\n    ]") {
		t.Fatalf("vendorsBlock matched the request echo: %q", want)
	}
	if err := checkMiss(200, missDoc("k1", "[\n    {\"vendor\": \"Huawei\"}\n  ]"), want); err != nil {
		t.Errorf("response differing only in key rejected: %v", err)
	}
	if err := checkMiss(200, missDoc("k1", "[\n    {\"vendor\": \"Nokia\"}\n  ]"), want); err == nil {
		t.Error("response with a different vendors block accepted")
	}
	if err := checkMiss(503, setup, want); err == nil {
		t.Error("non-200 response accepted")
	}
}

// TestClosedLoopCountsFailedResponses drives the generator against a
// server that answers every third request wrongly and every fifth with a
// 500: each such response counts as failed, against all attempted.
func TestClosedLoopCountsFailedResponses(t *testing.T) {
	want := []byte(strings.Repeat("x", 100000))
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		switch {
		case i%5 == 0:
			http.Error(w, "boom", http.StatusInternalServerError)
		case i%3 == 0:
			w.Write(want[1:])
		default:
			w.Write(want)
		}
	}))
	defer srv.Close()
	req := httpRequest("/v1/assimilate", []byte(`{}`))
	var sent atomic.Int64
	ls, err := closedLoop(strings.TrimPrefix(srv.URL, "http://"), 2, false, false,
		func(ci, i int) ([]byte, func(int, []byte) error, bool) {
			if sent.Add(1) > 30 {
				return nil, nil, false
			}
			return req, func(status int, body []byte) error { return checkHot(status, body, want) }, true
		})
	if err != nil {
		t.Fatal(err)
	}
	// Of 30 requests, 6 are 500s (i%5==0) and 8 are short (i%3==0, i%5!=0).
	if ls.attempted != 30 || ls.failed != 14 {
		t.Errorf("attempted %d failed %d, want 30 and 14", ls.attempted, ls.failed)
	}
}

func TestColdCheckRejectsWarmGlobalCaches(t *testing.T) {
	if err := checkColdCaches(map[string]float64{}); err != nil {
		t.Errorf("empty registry rejected: %v", err)
	}
	if err := checkColdCaches(map[string]float64{"nassim_cgm_graph_cache_hits_total": 1}); err == nil {
		t.Error("warm template cache accepted")
	}
	// Parsing one template twice warms the process-global parse cache,
	// which the real registry must show.
	tmpl := fmt.Sprintf("bench-cold-check %d <value>", time.Now().UnixNano())
	clisyntax.ParseCached(tmpl)
	clisyntax.ParseCached(tmpl)
	if err := checkColdCaches(telemetry.Default().FlatSnapshot()); err == nil {
		t.Error("a process with a warm parse cache passed the cold check")
	}
}

func TestOnboardRowChecks(t *testing.T) {
	good := onboardRow{Vendor: "Huawei", Commands: 12874, Views: 607, Invalid: 13, Ambiguous: 47,
		ConfigFiles: 197, LinesMatched: 90, LinesTotal: 90, Params: 5, ParamsWithTopK: 5,
		WantCommands: 12874, WantViews: 607, WantInvalid: 13, WantAmbiguous: 47, WantConfigFiles: 197}
	if bad := checkOnboardRow(good, true); len(bad) != 0 {
		t.Errorf("Table 4 row rejected: %v", bad)
	}
	r := good
	r.Invalid, r.WantInvalid = 12, 12
	if bad := checkOnboardRow(r, false); len(bad) != 0 {
		t.Errorf("row matching its own ground truth rejected at another seed: %v", bad)
	}
	if bad := checkOnboardRow(r, true); len(bad) != 1 {
		t.Errorf("default seed: %d failures, want the Table 4 invalid-CLI row: %v", len(bad), bad)
	}
	r = good
	r.LinesMatched = 89
	r.ParamsWithTopK = 4
	if bad := checkOnboardRow(r, true); len(bad) != 2 {
		t.Errorf("unmatched line and short recommendation list: %v", bad)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestUnattributedIsWallNoStageCovers(t *testing.T) {
	spans := []span{
		{Name: "parse", Start: at(1), End: at(3)},
		{Name: "parse", Start: at(2), End: at(5)}, // overlaps: counts once
		{Name: "hierarchy", Start: at(7), End: at(8)},
		{Name: "map_to_udm", Start: at(9), End: at(12)}, // clipped to the run
	}
	if got := unattributed(at(0), at(10), spans); got != 4*time.Millisecond {
		t.Errorf("unattributed = %v, want 4ms (0-1, 5-7, 8-9)", got)
	}
	if got := unattributed(at(0), at(10), nil); got != 10*time.Millisecond {
		t.Errorf("no spans: unattributed = %v, want the whole 10ms", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "parse", Start: at(1), End: at(3)},
		{ID: 3, Parent: 1, Name: "hierarchy", Start: at(2), End: at(4)},
	}
	self := selfTimes(spans)
	if self["job"] != 7*time.Millisecond || self["parse"] != 2*time.Millisecond {
		t.Errorf("self times %v, want job 7ms and parse 2ms", self)
	}
}

func TestQuietWindowsFollowStealOnly(t *testing.T) {
	ws := []stealWindow{
		{from: at(0), to: at(10), steal: 0.5},
		{from: at(10), to: at(20), steal: 0},
		{from: at(20), to: at(30), steal: 0.1},
	}
	q := quietWindows(ws)
	if len(q) != 2 || q[0].steal != 0 || q[1].steal != 0.1 {
		t.Fatalf("quietWindows = %v, want the windows at or below the median steal, in time order", q)
	}
	vals, total := inWindows(q, []time.Time{at(5), at(15), at(19), at(25), at(30)}, []float64{1, 2, 3, 4, 5})
	if fmt.Sprint(vals) != "[2 3 4]" || total != 20*time.Millisecond {
		t.Errorf("inWindows = %v over %v, want [2 3 4] over 20ms", vals, total)
	}
	quiet := []stealWindow{{from: at(0), to: at(10)}, {from: at(10), to: at(20)}}
	if len(quietWindows(quiet)) != 2 {
		t.Error("a host with no steal lost windows")
	}
}

func TestParseProm(t *testing.T) {
	m := parseProm([]byte("# HELP x y\nnassim_serve_requests_total{outcome=\"cache\"} 42\nup 1\n"))
	if m[`nassim_serve_requests_total{outcome="cache"}`] != 42 || m["up"] != 1 {
		t.Errorf("parseProm = %v", m)
	}
	before := map[string]float64{`a{x="1"}`: 1}
	after := map[string]float64{`a{x="1"}`: 3, `a{x="2"}`: 5, "ab": 9}
	if got := sumDelta(before, after, "a"); got != 7 {
		t.Errorf("sumDelta = %v, want 7", got)
	}
}
