package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"nassim"
	"nassim/internal/pipeline"
)

// missRequest is the shape of the benchmark's serve_miss request: all
// four vendors at scale 0.05 with validation and live testing, each
// request carrying its own live-test seed.
func missRequest(seed uint64) Request {
	return Request{Scale: 0.05, Validate: true, LiveTest: true, Seed: seed}
}

// TestServedBytesDigest pins the encoded response to four
// serve_miss-shaped requests. Each goes through the runner twice, so the
// run that generates and renders and the run that reuses both have to
// produce these bytes.
func TestServedBytesDigest(t *testing.T) {
	want := []struct {
		seed   uint64
		digest string
	}{
		{0, "22d9171619dad7003fd747365910c5da10a5bca5b644e6859ce716d39f8c9ff8"},
		{3, "01acbca2883cf5e05c43a47cd14b742e42bb66ebc5ae822a5e192e2eab085123"},
		{101, "7d432c5cad5ec62eb8a4c724951b72f18c5ccd8c8c20a0c0cc407dde70f0b5f4"},
		{1 << 40, "dfc45a878b000466b64ca4883ef671cb924fc6d4f20a683cb6b320e90d1914af"},
	}
	run := NewRunner(RunnerConfig{Workers: 2})
	for _, w := range want {
		for pass := 1; pass <= 2; pass++ {
			b, err := run(context.Background(), missRequest(w.seed).Normalize(), nil)
			if err != nil {
				t.Fatalf("seed %d pass %d: %v", w.seed, pass, err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != w.digest {
				t.Errorf("seed %d pass %d: %d bytes, sha256 %s; want %s",
					w.seed, pass, len(b), got, w.digest)
			}
		}
	}
}

// TestLiveMissesDoNotGrowStore: a live report records the device at one
// moment and is never stored, so once a runner's first miss has filled
// its pipeline cache, misses that differ only in their live-test seed add
// nothing to it.
func TestLiveMissesDoNotGrowStore(t *testing.T) {
	cache := nassim.NewPipelineCache()
	run := NewRunner(RunnerConfig{Workers: 2, Cache: cache})
	if _, err := run(context.Background(), missRequest(1).Normalize(), nil); err != nil {
		t.Fatal(err)
	}
	want := cache.Len()
	for seed := uint64(2); seed <= 5; seed++ {
		if _, err := run(context.Background(), missRequest(seed).Normalize(), nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := cache.Len(); got != want {
			t.Fatalf("after the miss with seed %d the store holds %d artifacts; want %d, as after the first miss",
				seed, got, want)
		}
	}
}

// fingerprint hashes everything a run reads from a vendor's inputs.
func fingerprint(t *testing.T, in *nassim.Inputs) string {
	t.Helper()
	model, err := json.Marshal(in.Model)
	if err != nil {
		t.Fatal(err)
	}
	parts := []string{string(model)}
	for _, p := range in.Pages {
		parts = append(parts, p.URL, p.HTML)
	}
	for _, f := range in.Configs {
		parts = append(parts, f.Name)
		parts = append(parts, f.Lines...)
	}
	return pipeline.HashStrings(parts...)
}

// memoEntries snapshots a runner's memo.
func memoEntries(rn *runner) map[memoKey]*memoEntry {
	rn.memo.mu.Lock()
	defer rn.memo.mu.Unlock()
	out := make(map[memoKey]*memoEntry, len(rn.memo.entries))
	for k, e := range rn.memo.entries {
		out[k] = e
	}
	return out
}

// TestMemoSharedReadOnly sends concurrent misses with distinct live-test
// seeds through one server. They share one memo entry per vendor, and
// their vendors blocks are equal (at this scale every seed's live test
// tests and verifies the same counts). Afterwards every memoized input is
// exactly what a fresh generation gives and the shared device acceptor
// has an empty running configuration: no stage wrote into shared inputs.
func TestMemoSharedReadOnly(t *testing.T) {
	rn := newRunner(RunnerConfig{Workers: 2})
	s, err := NewServer(Config{Workers: 4, Runner: rn.run})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	const scale = 0.02
	docs := make([]Response, 6)
	var wg sync.WaitGroup
	for i := range docs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{Scale: scale, Validate: true, LiveTest: true, Seed: uint64(i) + 1}
			b, dedup, err := s.Submit(context.Background(), req)
			if err != nil || dedup != DedupMiss {
				t.Errorf("seed %d: dedup %q, err %v", req.Seed, dedup, err)
				return
			}
			if err := json.Unmarshal(b, &docs[i]); err != nil {
				t.Errorf("seed %d: %v", req.Seed, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, d := range docs[1:] {
		if !reflect.DeepEqual(d.Vendors, docs[0].Vendors) {
			t.Errorf("seed %d: vendors block differs from seed 1's", i+2)
		}
	}

	entries := memoEntries(rn)
	if len(entries) != len(nassim.Vendors()) {
		t.Fatalf("memo holds %d entries; want one per vendor (%d)", len(entries), len(nassim.Vendors()))
	}
	for k, e := range entries {
		fresh, err := nassim.GenerateInputs(k.vendor, k.scale, true)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(t, e.in) != fingerprint(t, fresh) {
			t.Errorf("%s: memoized inputs changed after the runs", k.vendor)
		}
		if show := e.in.Device.NewSession().Exec(e.in.Device.ShowConfigCommand()); len(show.Data) != 0 {
			t.Errorf("%s: shared device acceptor holds %d config lines", k.vendor, len(show.Data))
		}
	}
}

// TestMemoCapacity: the memo is keyed by a client-chosen scale, so
// memoCapacity+1 distinct scales must evict the oldest.
func TestMemoCapacity(t *testing.T) {
	rn := newRunner(RunnerConfig{Workers: 1})
	scaleOf := func(i int) float64 { return 0.01 + 0.001*float64(i) }
	for i := 0; i <= memoCapacity; i++ {
		req := Request{Vendors: []string{"Cisco"}, Scale: scaleOf(i)}
		if _, err := rn.run(context.Background(), req, nil); err != nil {
			t.Fatal(err)
		}
	}
	entries := memoEntries(rn)
	if len(entries) != memoCapacity {
		t.Errorf("memo holds %d entries after %d scales; want %d", len(entries), memoCapacity+1, memoCapacity)
	}
	if _, ok := entries[memoKey{"Cisco", scaleOf(0)}]; ok {
		t.Error("the oldest scale survived eviction")
	}
}
