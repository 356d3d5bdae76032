// Package serve turns the one-shot assimilation pipeline into a
// long-lived service: a singleflight front that coalesces identical
// requests onto one pipeline execution, a result cache whose warm path
// re-serves stored bytes without a single JSON encode or decode, and a
// bounded job queue with per-tenant admission control. The HTTP surface
// (http.go) speaks plain JSON plus an SSE stream of per-stage progress
// wired through nassim.Options.StageHook.
package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"nassim"
	"nassim/internal/pipeline"
)

// ResponseSchema identifies the served result document's JSON layout.
const ResponseSchema = "nassim-serve-result/v1"

// Request is one assimilation request. Two requests with equal
// normalized bodies are the same work: they share a Key, coalesce onto
// one pipeline execution, and receive byte-identical responses. Tenant
// is admission identity only — it never enters the Key, so tenants
// share the dedup cache.
type Request struct {
	// Vendors to assimilate, in pipeline order; empty means the built-in
	// vendor set in Table 4 order.
	Vendors []string `json:"vendors,omitempty"`
	// Scale is the synthetic corpus scale; <= 0 defaults to 0.1.
	Scale float64 `json:"scale,omitempty"`
	// Validate and LiveTest enable the corresponding pipeline stages.
	Validate bool `json:"validate,omitempty"`
	LiveTest bool `json:"live_test,omitempty"`
	// Seed is the live-test instantiation seed.
	Seed uint64 `json:"seed,omitempty"`
	// Tenant names the caller for rate limiting and in-flight quotas.
	Tenant string `json:"tenant,omitempty"`
}

// Normalize fills defaults so equivalent requests hash identically:
// the empty vendor list becomes the explicit built-in set and a
// non-positive scale becomes the default. Tenant is preserved (it is
// excluded from the Key, not from the request).
func (r Request) Normalize() Request {
	if len(r.Vendors) == 0 {
		r.Vendors = nassim.Vendors()
	}
	if r.Scale <= 0 {
		r.Scale = 0.1
	}
	return r
}

// Key is the request's content-addressed identity: a sha256 over the
// normalized work description, chained through the same hash helper the
// pipeline's artifact store uses. Tenant is deliberately excluded.
func (r Request) Key() string {
	n := r.Normalize()
	parts := []string{
		"serve/v1",
		strconv.FormatFloat(n.Scale, 'g', -1, 64),
		strconv.FormatBool(n.Validate),
		strconv.FormatBool(n.LiveTest),
		strconv.FormatUint(n.Seed, 10),
	}
	return pipeline.HashStrings(append(parts, n.Vendors...)...)
}

// Check rejects requests the pipeline would reject, before they cost a
// queue slot.
func (r Request) Check() error {
	n := r.Normalize()
	known := map[string]bool{}
	for _, v := range nassim.Vendors() {
		known[v] = true
	}
	known["Juniper"] = true
	for _, v := range n.Vendors {
		if !known[v] {
			have := append(nassim.Vendors(), "Juniper")
			sort.Strings(have)
			return fmt.Errorf("serve: unknown vendor %q (have %v)", v, have)
		}
	}
	if n.Scale > 1.0 {
		return fmt.Errorf("serve: scale %v out of range (0, 1]", n.Scale)
	}
	return nil
}

// VendorResult is one vendor's slice of a served response: the input
// content hashes, the headline Table 4 counts, and the full derived VDM.
type VendorResult struct {
	Vendor string `json:"vendor"`
	// PagesHash and ConfigHash name the synthetic inputs by content, the
	// same sha256 hashes the artifact cache keys chain from.
	PagesHash  string `json:"pages_hash"`
	ConfigHash string `json:"config_hash,omitempty"`
	Corpora    int    `json:"corpora"`
	Views      int    `json:"views"`
	// InvalidCLIs counts pre-correction syntax failures; Corrected counts
	// the expert fixes folded into the rebuild.
	InvalidCLIs int `json:"invalid_clis"`
	Corrected   int `json:"corrected"`
	// Config* report empirical validation when the request enabled it.
	ConfigFiles        int `json:"config_files,omitempty"`
	ConfigLinesMatched int `json:"config_lines_matched,omitempty"`
	ConfigLinesTotal   int `json:"config_lines_total,omitempty"`
	// Live* report live-device testing when the request enabled it.
	LiveTested   int `json:"live_tested,omitempty"`
	LiveVerified int `json:"live_verified,omitempty"`
	// Degraded lists stages that yielded partial artifacts, by name.
	Degraded []string `json:"degraded,omitempty"`
	// VDM is the vendor's complete derived model document.
	VDM json.RawMessage `json:"vdm"`
}

// Response is the served result document. The body is deterministic for
// a given Key — dedup provenance travels in HTTP headers, never here —
// so cached bytes are re-servable verbatim.
type Response struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	// Request echoes the normalized request with the tenant stripped:
	// the body describes the work, not the caller.
	Request Request        `json:"request"`
	Vendors []VendorResult `json:"vendors"`
}

// BuildResponse assembles the deterministic response document from a
// completed run's per-vendor results (in request order).
func BuildResponse(req Request, results []*nassim.AssimilationResult) (*Response, error) {
	n := req.Normalize()
	n.Tenant = ""
	resp := &Response{Schema: ResponseSchema, Key: req.Key(), Request: n}
	for _, r := range results {
		if r == nil {
			return nil, fmt.Errorf("serve: missing vendor result")
		}
		vdmBytes, err := nassim.MarshalVDM(r.VDM)
		if err != nil {
			return nil, fmt.Errorf("serve: marshal %s VDM: %w", r.Model.Vendor, err)
		}
		vr := VendorResult{
			Vendor:      string(r.Model.Vendor),
			PagesHash:   r.PagesHash,
			ConfigHash:  r.ConfigHash,
			Corpora:     len(r.VDM.Corpora),
			Views:       len(r.VDM.Views),
			InvalidCLIs: r.PreCorrectionInvalid,
			Corrected:   r.CorrectionsApplied,
		}
		if r.Empirical != nil {
			vr.ConfigFiles = r.Empirical.Files
			vr.ConfigLinesMatched = r.Empirical.MatchedLines
			vr.ConfigLinesTotal = r.Empirical.TotalLines
		}
		if r.Live != nil {
			vr.LiveTested = r.Live.Tested
			vr.LiveVerified = r.Live.Verified
		}
		for st := range r.DegradedStages {
			vr.Degraded = append(vr.Degraded, string(st))
		}
		sort.Strings(vr.Degraded)
		vr.VDM = vdmBytes
		resp.Vendors = append(resp.Vendors, vr)
	}
	return resp, nil
}

var responseEncodes atomic.Int64

// EncodeResponse renders the response as indented JSON with a trailing
// newline. Every call increments the ResponseEncodes counter, so tests
// can assert the warm served path performs zero encodes.
func EncodeResponse(r *Response) ([]byte, error) {
	responseEncodes.Add(1)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ResponseEncodes counts EncodeResponse calls process-wide. A warm
// cache hit re-serves stored bytes and does not move it.
func ResponseEncodes() int64 { return responseEncodes.Load() }
