// Package parser implements NAssim's Parser Framework (§4): the base
// Parser that turns vendor manual pages into the vendor-independent corpus
// format, the four vendor-specific parsers (Huawei, Cisco, Nokia, H3C), and
// the Test-Driven-Development workflow — parsing a batch, running the
// Appendix B completeness tests inherited from the base parser, and
// producing the violation report the developer iterates against.
package parser

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"nassim/internal/corpus"
	"nassim/internal/htmlparse"
	"nassim/internal/telemetry"
)

// Page is one manual page to parse: the HTML body plus the external link
// used in violation reports.
type Page struct {
	URL  string
	HTML string
}

// ViewEdge is an explicit parent/child relationship between two views.
// Most vendors leave the hierarchy implicit in example snippets; Nokia
// manuals publish it as a context path, and Parser_<nokia> extracts it
// through this side channel (Table 4's footnote).
type ViewEdge struct {
	Parent string
	Child  string
}

// Result is the outcome of parsing one manual: the preliminary VDM corpus
// plus any explicit hierarchy edges the vendor publishes.
type Result struct {
	Corpora   []corpus.Corpus
	Hierarchy []ViewEdge
	// Pool reports how the page fan-out spent its time (per-worker busy
	// time and utilization). It is observational only — excluded from
	// serialization so cached parse artifacts stay byte-identical across
	// worker counts.
	Pool telemetry.PoolStats `json:"-"`
}

// parsePageFunc is the vendor-specific parsing() method: one manual page in,
// one corpus (and optional explicit hierarchy edges) out.
type parsePageFunc func(doc *htmlparse.Node) (corpus.Corpus, []ViewEdge)

// Parser is the base parser class. Vendor parsers differ only in their
// parsing() function; Parse and Validate are inherited behaviour.
type Parser struct {
	vendor    string
	parsePage parsePageFunc
	workers   int
}

// SetWorkers selects the page fan-out of Parse: the requested worker
// count (or GOMAXPROCS when unset or below 1) clamped to GOMAXPROCS and
// the page count. One worker parses on the calling goroutine; every
// worker count runs the same arena-pooled path, and Parse output is
// byte-identical across worker counts.
func (p *Parser) SetWorkers(n int) { p.workers = n }

// New returns the built-in parser for a vendor ("Huawei", "Cisco", "Nokia",
// "H3C"; case-insensitive).
func New(vendor string) (*Parser, error) {
	switch strings.ToLower(vendor) {
	case "huawei":
		return &Parser{vendor: "Huawei", parsePage: parseHuaweiPage}, nil
	case "cisco":
		return &Parser{vendor: "Cisco", parsePage: parseCiscoPage}, nil
	case "nokia":
		return &Parser{vendor: "Nokia", parsePage: parseNokiaPage}, nil
	case "h3c":
		return &Parser{vendor: "H3C", parsePage: parseH3CPage}, nil
	case "juniper":
		// The E13 new-vendor on-boarding extension (not in Table 4).
		return &Parser{vendor: "Juniper", parsePage: parseJuniperPage}, nil
	}
	return nil, fmt.Errorf("parser: no parser registered for vendor %q", vendor)
}

// Vendor returns the vendor this parser handles.
func (p *Parser) Vendor() string { return p.vendor }

func init() {
	reg := telemetry.Default()
	reg.SetHelp("nassim_parser_pages_parsed_total", "Manual pages run through a vendor parser.")
	reg.SetHelp("nassim_parser_parse_seconds", "Wall time of one manual-batch parse.")
	reg.SetHelp("nassim_parser_completeness_violations_total", "Appendix B completeness-test violations reported.")
	reg.SetHelp("nassim_parse_worker_busy_seconds", "Per-worker busy time of one manual-batch parse fan-out, by vendor and pool size.")
}

// Parse runs the vendor parsing() over a batch of manual pages, producing
// the preliminary VDM corpus. It never fails: malformed pages yield
// incomplete corpora that the completeness tests flag. Cancellation via
// ctx is honored between pages; the partial result is then incomplete and
// the caller should check ctx.Err() before using it.
func (p *Parser) Parse(ctx context.Context, pages []Page) *Result {
	ctx, span := telemetry.Span(ctx, "parse.manual", "vendor", p.vendor, "pages", len(pages), "workers", p.workers)
	defer span.End()
	start := time.Now()
	res := &Result{}
	pageResults, pool := p.parsePages(ctx, pages)
	res.Pool = pool
	telemetry.ObserveWorkerBusy("nassim_parse_worker_busy_seconds", pool, "vendor", p.vendor)
	// Ordered reduction: corpora in page order, explicit hierarchy edges
	// deduplicated in page order — byte-identical to the sequential loop.
	// One corpus per parsed page: preallocate so the append loop never
	// re-copies the (large) corpus structs while growing.
	res.Corpora = make([]corpus.Corpus, 0, len(pages))
	edgeSeen := map[ViewEdge]bool{}
	for _, pr := range pageResults {
		if !pr.done {
			continue // page skipped by cancellation
		}
		res.Corpora = append(res.Corpora, pr.corpus)
		for _, e := range pr.edges {
			if !edgeSeen[e] {
				edgeSeen[e] = true
				res.Hierarchy = append(res.Hierarchy, e)
			}
		}
	}
	telemetry.GetCounter("nassim_parser_pages_parsed_total", "vendor", p.vendor).Add(int64(len(pages)))
	telemetry.GetCounter("nassim_parser_corpora_total", "vendor", p.vendor).Add(int64(len(res.Corpora)))
	telemetry.GetHistogram("nassim_parser_parse_seconds", nil, "vendor", p.vendor).ObserveDuration(time.Since(start))
	telemetry.Logger(telemetry.ComponentParser).Debug("parsed manual batch",
		"vendor", p.vendor, "pages", len(pages), "corpora", len(res.Corpora),
		"explicit_edges", len(res.Hierarchy), "elapsed", time.Since(start))
	return res
}

// arenaFree recycles DOM arenas across Parse calls and vendors. An
// arena's value is its warmed slabs and intern caches; rebuilding them
// per batch would pay the cold-growth cost on every pipeline job. A
// permanent free list is deliberate — sync.Pool drops its contents at
// GC, and a page fan-out allocates enough corpus garbage to cycle the
// collector every batch, which would re-grow every slab from cold. The
// list never exceeds the peak concurrent worker count (≤ GOMAXPROCS).
var arenaFree struct {
	mu   sync.Mutex
	list []*htmlparse.Arena
}

func getArena() *htmlparse.Arena {
	arenaFree.mu.Lock()
	defer arenaFree.mu.Unlock()
	if n := len(arenaFree.list); n > 0 {
		a := arenaFree.list[n-1]
		arenaFree.list[n-1] = nil
		arenaFree.list = arenaFree.list[:n-1]
		return a
	}
	return htmlparse.NewArena(nil)
}

func putArena(a *htmlparse.Arena) {
	arenaFree.mu.Lock()
	arenaFree.list = append(arenaFree.list, a)
	arenaFree.mu.Unlock()
}

// pageSpanIfTracing opens a per-page trace span only when a recorder is
// installed. Span itself is a no-op when tracing is off, but its variadic
// attributes still box per call — measurable at manual-batch page counts
// in the decode hot loop.
func pageSpanIfTracing(ctx context.Context, url string) *telemetry.SpanHandle {
	if !telemetry.TracingEnabled() {
		return nil
	}
	_, pageSpan := telemetry.Span(ctx, "parse.page", "url", url)
	return pageSpan
}

// pageResult is the outcome of parsing one page, collected positionally so
// the fan-out stays order-stable.
type pageResult struct {
	corpus corpus.Corpus
	edges  []ViewEdge
	done   bool
}

// parsePages runs the vendor parsing() over every page through
// telemetry.RunPool, with the worker count clamped to GOMAXPROCS — page
// decoding is pure CPU, so slots beyond the scheduler's parallelism only
// add queueing. Each worker streams its pages through its own
// slab-backed DOM arena over the shared interning pool, so per-page
// tokenizer, node, and children allocations are amortized across the
// worker's whole stream. Results land at their page index regardless of
// completion order; pages skipped by cancellation stay absent. The
// returned PoolStats carries each effective worker's busy time so callers
// (and the run manifest) can compute honest fan-out utilization.
func (p *Parser) parsePages(ctx context.Context, pages []Page) ([]pageResult, telemetry.PoolStats) {
	workers := p.workers
	if maxPar := runtime.GOMAXPROCS(0); workers < 1 || workers > maxPar {
		workers = maxPar
	}
	results := make([]pageResult, len(pages))
	arenas := make([]*htmlparse.Arena, workers)
	pool := telemetry.RunPool(workers, len(pages), func(w, i int) {
		if ctx.Err() != nil {
			return
		}
		if arenas[w] == nil {
			arenas[w] = getArena()
		}
		pageSpan := pageSpanIfTracing(ctx, pages[i].URL)
		c, edges := p.parsePage(arenas[w].ParseString(pages[i].HTML))
		c.Vendor = p.vendor
		c.SourceURL = pages[i].URL
		results[i] = pageResult{corpus: c, edges: edges, done: true}
		pageSpan.End()
	})
	for _, a := range arenas {
		if a != nil {
			putArena(a)
		}
	}
	return results, pool
}

// Validate is the base-class validating() method: it runs the Appendix B
// completeness tests plus the vendor's additional constraints (§4 step 0)
// over parsed corpora and returns the combined violation report.
func (p *Parser) Validate(ctx context.Context, corpora []corpus.Corpus) *corpus.Report {
	_, span := telemetry.Span(ctx, "parse.validate", "vendor", p.vendor)
	defer span.End()
	rep := corpus.RunTests(corpora)
	rep.Merge(corpus.RunConstraintTests(corpus.VendorConstraints(p.vendor), corpora))
	telemetry.GetCounter("nassim_parser_completeness_violations_total", "vendor", p.vendor).
		Add(int64(len(rep.Violations)))
	if !rep.Passed() {
		telemetry.Logger(telemetry.ComponentParser).Debug("completeness tests flagged violations",
			"vendor", p.vendor, "violations", len(rep.Violations))
	}
	return rep
}

// ParseAndValidate runs one TDD iteration: parse the batch, test it, return
// both. The developer samples the most problematic corpora from the report,
// amends the parsing logic, and repeats until the report passes (§4).
func (p *Parser) ParseAndValidate(ctx context.Context, pages []Page) (*Result, *corpus.Report) {
	res := p.Parse(ctx, pages)
	return res, p.Validate(ctx, res.Corpora)
}

// Vendors lists the vendors with built-in parsers, in Table 4 order.
func Vendors() []string { return []string{"Huawei", "Cisco", "Nokia", "H3C"} }

// --- shared parsing helpers -------------------------------------------------

// styledCLI reconstructs the plain-text command template from a styled
// container: spans carrying a keyword class become literal tokens, spans
// carrying a parameter class become <angle-bracketed> placeholders, and
// plain text (the { | } [ ] convention symbols) passes through. Class-name
// variants discovered through the TDD loop are all listed (§2.2, Appendix
// B: one manual interchangeably uses several classes for one concept).
func styledCLI(container *htmlparse.Node, kwClasses, paramClasses []string) string {
	var b strings.Builder
	emit := func(tok string) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(tok)
	}
	container.Walk(func(n *htmlparse.Node) bool {
		switch n.Type {
		case htmlparse.TextNode:
			htmlparse.EachField(n.Data, emit)
			return true
		case htmlparse.ElementNode, htmlparse.DocumentNode:
			for _, cls := range n.Classes() {
				if classIn(kwClasses, cls) {
					htmlparse.EachField(n.Text(), emit)
					return false
				}
				if classIn(paramClasses, cls) {
					if t := n.Text(); t != "" {
						emit("<" + t + ">")
					}
					return false
				}
			}
			return true
		}
		return true
	})
	return b.String()
}

// classIn reports membership of c in a (small) class-variant list. The
// lists are a handful of entries, so a linear scan beats allocating a
// set map on every styled-container reconstruction.
func classIn(classes []string, c string) bool {
	for _, want := range classes {
		if c == want {
			return true
		}
	}
	return false
}

// classBuckets collects, per requested class, the descendant elements of
// doc carrying it (document order). Result k is exactly
// doc.ByClass(classes[k]), but every bucket is filled in one tree walk —
// a vendor parsing() method queries several classes per page, and the
// repeated whole-tree traversals were its dominant cost.
func classBuckets(doc *htmlparse.Node, classes ...string) [][]*htmlparse.Node {
	out := make([][]*htmlparse.Node, len(classes))
	doc.Walk(func(m *htmlparse.Node) bool {
		if m == doc || m.Type != htmlparse.ElementNode {
			return true
		}
		for k, want := range classes {
			for _, cls := range m.Classes() {
				if cls == want {
					out[k] = append(out[k], m)
					break
				}
			}
		}
		return true
	})
	return out
}

// styledCLIFontBased reconstructs a template from a container where every
// token is styled and keyword spans are distinguished from parameter spans
// purely by their (keyword) classes: any other styled span is a parameter.
// This is how manuals with rich-text font discrimination are read (Cisco,
// Huawei); it is also what makes a missing keyword-class variant
// *observable* — the token is mistaken for a parameter and the
// keyword/parameter self-check flags it (Appendix B).
func styledCLIFontBased(container *htmlparse.Node, kwClasses []string) string {
	var b strings.Builder
	emit := func(tok string) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(tok)
	}
	container.Walk(func(n *htmlparse.Node) bool {
		switch n.Type {
		case htmlparse.TextNode:
			htmlparse.EachField(n.Data, emit)
			return true
		case htmlparse.ElementNode, htmlparse.DocumentNode:
			if n == container || n.Type == htmlparse.DocumentNode {
				return true
			}
			for _, cls := range n.Classes() {
				if classIn(kwClasses, cls) {
					htmlparse.EachField(n.Text(), emit)
					return false
				}
			}
			if len(n.Classes()) > 0 {
				if t := n.Text(); t != "" {
					emit("<" + t + ">")
				}
				return false
			}
			return true
		}
		return true
	})
	return b.String()
}

// joinClause appends one collapsed text clause to an accumulating
// definition. Both operands are already trimmed (Node.Text collapses and
// trims), so this is exactly strings.TrimSpace(def + " " + text) without
// re-scanning the whole accumulated definition per clause.
func joinClause(def, text string) string {
	if text == "" {
		return def
	}
	if def == "" {
		return text
	}
	return def + " " + text
}

// exampleLines splits a <pre> example block into its configuration lines,
// preserving the leading indentation that encodes view depth.
func exampleLines(pre *htmlparse.Node) []string {
	raw := pre.RawText()
	var out []string
	for _, line := range strings.Split(raw, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		out = append(out, strings.TrimRight(line, " \t\r"))
	}
	return out
}

// sections groups the flat sibling structure Huawei-style manuals use: each
// element with the title class starts a section named by its text; all
// elements until the next title belong to it.
func sections(doc *htmlparse.Node, titleClass string) map[string][]*htmlparse.Node {
	out := map[string][]*htmlparse.Node{}
	var current string
	var bucket []*htmlparse.Node
	// Elements are bucketed locally and flushed once per section, so the
	// walk hashes the title once per section instead of once per element.
	flush := func() {
		if current != "" && len(bucket) > 0 {
			out[current] = append(out[current], bucket...)
			bucket = bucket[:0]
		}
	}
	var walk func(n *htmlparse.Node)
	walk = func(n *htmlparse.Node) {
		for _, c := range n.Children {
			if c.Type != htmlparse.ElementNode {
				continue
			}
			if c.HasClass(titleClass) {
				flush()
				current = c.Text()
				continue
			}
			if current != "" {
				bucket = append(bucket, c)
				continue
			}
			walk(c)
		}
	}
	walk(doc)
	flush()
	return out
}

// sortedKeys is a test helper exposed for deterministic debugging output.
func sortedKeys(m map[string][]*htmlparse.Node) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
