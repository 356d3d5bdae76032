// Package empirical implements the Validator's third stage (§5.3):
// validation of the derived VDM against empirical device configurations.
// The Figure 8 workflow checks, for every CLI instance in a configuration
// file, that (a) a validated command template matches it and (b) the
// matched template and the template of its parent instance form a
// parent-child relationship on the derived CLI hierarchy. Commands unused
// by any running device are then exercised directly: CGM paths are
// enumerated, instantiated, issued to a (simulated) device over the
// network, and verified through the device's show command.
package empirical

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"time"

	"nassim/internal/cgm"
	"nassim/internal/configgen"
	"nassim/internal/device"
	"nassim/internal/devmodel"
	"nassim/internal/telemetry"
	"nassim/internal/vdm"
)

// telMemoHits counts per-line work answered from the run's memo tables
// (template matching and hierarchy checks).
var telMemoHits = telemetry.GetCounter("nassim_empirical_memo_hits_total")

func init() {
	reg := telemetry.Default()
	reg.SetHelp("nassim_empirical_memo_hits_total", "Line matches and hierarchy checks answered from validation memo tables.")
	reg.SetHelp("nassim_empirical_files_total", "Configuration files run through Figure 8 validation.")
	reg.SetHelp("nassim_empirical_lines_total", "Configuration lines checked, by match outcome.")
	reg.SetHelp("nassim_empirical_validate_seconds", "Wall time of one ValidateConfigs run.")
	reg.SetHelp("nassim_empirical_worker_busy_seconds", "Per-worker busy time of one config-validation fan-out, by vendor and pool size.")
	reg.SetHelp("nassim_empirical_live_instances_total", "Generated instances issued to a live device, by outcome.")
	reg.SetHelp("nassim_live_degraded_total", "Live-testing runs that degraded instead of completing, by reason.")
}

// Failure records one configuration line the workflow could not validate,
// with the reason the experts will audit (§5.3: "not found matched CLI
// template", "unmatched hierarchy").
type Failure struct {
	File   string
	LineNo int // zero-based within the file
	Line   string
	Reason string
}

// String implements fmt.Stringer.
func (f Failure) String() string {
	return fmt.Sprintf("%s:%d: %q: %s", f.File, f.LineNo, f.Line, f.Reason)
}

// Report summarizes a configuration-validation run (the Table 4 "Device
// Configuration Validation" rows).
type Report struct {
	Files        int
	TotalLines   int
	UniqueLines  int
	MatchedLines int
	UsedCorpora  map[int]bool // corpus indices matched at least once
	Failures     []Failure
	// Pool reports how the per-file fan-out spent its time (per-worker busy
	// time and utilization). Observational only — excluded from
	// serialization and from the golden worker-count comparisons.
	Pool telemetry.PoolStats `json:"-"`
}

// MatchingRatio is the fraction of configuration lines matched to the
// validated model — 100% in the paper's evaluation.
func (r *Report) MatchingRatio() float64 {
	if r.TotalLines == 0 {
		return 0
	}
	return float64(r.MatchedLines) / float64(r.TotalLines)
}

// UsedTemplates counts distinct command templates exercised by the corpus
// (the paper: 153 of Huawei's 12 874).
func (r *Report) UsedTemplates() int { return len(r.UsedCorpora) }

// String implements fmt.Stringer.
func (r *Report) String() string {
	return fmt.Sprintf("files=%d lines=%d unique=%d matched=%d ratio=%.2f%% templates=%d failures=%d",
		r.Files, r.TotalLines, r.UniqueLines, r.MatchedLines,
		100*r.MatchingRatio(), r.UsedTemplates(), len(r.Failures))
}

// indentOf measures leading-space depth.
func indentOf(line string) int {
	return len(line) - len(strings.TrimLeft(line, " "))
}

// frame is one level of the stanza stack while walking a file.
type frame struct {
	indent     int
	candidates []int // corpus indices the line at this level matched
}

// Options tunes ValidateConfigsOpts. The zero value matches the historical
// sequential behavior.
type Options struct {
	// Workers bounds the per-file fan-out; values below 2 validate on
	// the calling goroutine.
	Workers int
}

// ValidateConfigs runs the Figure 8 workflow over a configuration corpus.
// Cancellation via ctx is honored between files; the partial report is
// then incomplete and the caller should check ctx.Err() before using it.
func ValidateConfigs(ctx context.Context, v *vdm.VDM, files []configgen.File) *Report {
	return ValidateConfigsOpts(ctx, v, files, Options{})
}

// ValidateConfigsOpts is ValidateConfigs with tuning. Files are validated
// independently (the stanza stack is per-file), fanned out over a bounded
// worker pool and reduced in file order, so the report is identical to the
// sequential path on a complete run. Two memo tables cut the per-line cost:
// template matching is memoized on the unique line, and hierarchy checking
// on (parent candidate set, line) — device fleets repeat the same stanzas
// across hundreds of files.
func ValidateConfigsOpts(ctx context.Context, v *vdm.VDM, files []configgen.File, opts Options) *Report {
	_, span := telemetry.Span(ctx, "validate.empirical",
		"vendor", v.Vendor, "files", len(files), "workers", opts.Workers)
	defer span.End()
	start := time.Now()

	m := newMatcher(v)
	results := make([]*fileReport, len(files))
	pool := telemetry.RunPool(opts.Workers, len(files), func(_, i int) {
		if ctx.Err() == nil {
			results[i] = m.validateFile(files[i])
		}
	})
	telemetry.ObserveWorkerBusy("nassim_empirical_worker_busy_seconds", pool, "vendor", v.Vendor)

	rep := &Report{Files: len(files), UsedCorpora: map[int]bool{}, Pool: pool}
	unique := map[string]bool{}
	for _, fr := range results {
		if fr == nil {
			continue // file skipped by cancellation
		}
		rep.TotalLines += fr.totalLines
		rep.MatchedLines += fr.matchedLines
		rep.Failures = append(rep.Failures, fr.failures...)
		for c := range fr.usedCorpora {
			rep.UsedCorpora[c] = true
		}
		for l := range fr.unique {
			unique[l] = true
		}
	}
	rep.UniqueLines = len(unique)

	telemetry.GetCounter("nassim_empirical_files_total").Add(int64(rep.Files))
	telemetry.GetCounter("nassim_empirical_lines_total", "result", "matched").Add(int64(rep.MatchedLines))
	telemetry.GetCounter("nassim_empirical_lines_total", "result", "unmatched").
		Add(int64(rep.TotalLines - rep.MatchedLines))
	telemetry.GetHistogram("nassim_empirical_validate_seconds", nil).ObserveDuration(time.Since(start))
	telemetry.Logger(telemetry.ComponentEmpirical).Debug("validated configurations",
		"vendor", v.Vendor, "files", rep.Files, "lines", rep.TotalLines,
		"matched", rep.MatchedLines, "failures", len(rep.Failures),
		"templates_used", rep.UsedTemplates(), "elapsed", time.Since(start))
	return rep
}

// fileReport is the per-file slice of the report, reduced in file order.
type fileReport struct {
	totalLines   int
	matchedLines int
	usedCorpora  map[int]bool
	unique       map[string]bool
	failures     []Failure
}

// matcher holds the precomputed VDM lookups and the shared memo tables one
// ValidateConfigsOpts run uses across its file workers.
type matcher struct {
	v *vdm.VDM
	// parentViews[c] is the set of working views of corpus c (the naive
	// path scanned the slice per check).
	parentViews []map[string]bool
	// enters[c] lists the views corpus c enables — the inversion of
	// VDM.Views, computed once instead of one full map scan per Enters
	// call per line.
	enters   [][]string
	candMemo [memoShards]candShard
	survMemo [memoShards]survShard
}

const memoShards = 16

type candShard struct {
	mu sync.RWMutex
	m  map[string][]int
}

type survShard struct {
	mu sync.RWMutex
	m  map[string]survivorSet
}

// survivorSet is a memoized hierarchy-check outcome. The survivors slice
// is shared between frames and memo entries and must never be mutated.
type survivorSet struct {
	ok        bool
	survivors []int
}

func newMatcher(v *vdm.VDM) *matcher {
	m := &matcher{
		v:           v,
		parentViews: make([]map[string]bool, len(v.Corpora)),
		enters:      make([][]string, len(v.Corpora)),
	}
	for c := range v.Corpora {
		pv := make(map[string]bool, len(v.Corpora[c].ParentViews))
		for _, w := range v.Corpora[c].ParentViews {
			pv[w] = true
		}
		m.parentViews[c] = pv
	}
	for name, info := range v.Views {
		if info.EnterCorpus >= 0 && info.EnterCorpus < len(m.enters) {
			m.enters[info.EnterCorpus] = append(m.enters[info.EnterCorpus], name)
		}
	}
	for c := range m.enters {
		sort.Strings(m.enters[c])
	}
	for i := range m.candMemo {
		m.candMemo[i].m = make(map[string][]int)
		m.survMemo[i].m = make(map[string]survivorSet)
	}
	return m
}

// candidates resolves a line to its corpus candidates through the memo
// table: each unique line runs the CGM index once per validation run.
func (m *matcher) candidates(line string) []int {
	s := &m.candMemo[memoShard(line)]
	s.mu.RLock()
	cands, ok := s.m[line]
	s.mu.RUnlock()
	if ok {
		telMemoHits.Inc()
		return cands
	}
	for _, id := range m.v.Index.Match(line) {
		if i, err := vdm.ParseCorpusID(id); err == nil {
			cands = append(cands, i)
		}
	}
	s.mu.Lock()
	s.m[line] = cands
	s.mu.Unlock()
	return cands
}

// survivors runs the memoized hierarchy check: which candidates of line
// may appear under the given parent candidates (nil parents means top
// level, checked against the root view). The survivor membership depends
// only on the candidate sets, not their order, so the list is built in
// candidate order — deterministic regardless of which worker gets there
// first.
func (m *matcher) survivors(parents []int, line string, cands []int) (bool, []int) {
	key := survKey(parents, line)
	s := &m.survMemo[memoShard(key)]
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		telMemoHits.Inc()
		return e.ok, e.survivors
	}
	var out []int
	if parents == nil {
		for _, c := range cands {
			if m.parentViews[c][m.v.RootView] {
				out = append(out, c)
			}
		}
	} else {
		// Views any parent candidate enters; survivor candidates must work
		// under one of them.
		enterUnion := map[string]bool{}
		for _, p := range parents {
			for _, w := range m.enters[p] {
				enterUnion[w] = true
			}
		}
		for _, c := range cands {
			for _, w := range m.v.Corpora[c].ParentViews {
				if enterUnion[w] {
					out = append(out, c)
					break
				}
			}
		}
	}
	e = survivorSet{ok: len(out) > 0, survivors: out}
	s.mu.Lock()
	s.m[key] = e
	s.mu.Unlock()
	return e.ok, e.survivors
}

// survKey renders (parent candidate list, line) into a memo key. Parent
// lists come out of the survivors memo itself, so equal sets share one
// canonical order and key.
func survKey(parents []int, line string) string {
	var b strings.Builder
	b.Grow(4*len(parents) + 1 + len(line))
	for _, p := range parents {
		b.WriteString(fmt.Sprintf("%d,", p))
	}
	b.WriteByte('\x00')
	b.WriteString(line)
	return b.String()
}

func memoShard(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h % memoShards
}

// validateFile walks one configuration file's stanza structure, exactly
// like the naive reference but through the matcher's memo tables.
func (m *matcher) validateFile(f configgen.File) *fileReport {
	fr := &fileReport{usedCorpora: map[int]bool{}, unique: map[string]bool{}}
	var stack []frame
	for lineNo, raw := range f.Lines {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		fr.totalLines++
		fr.unique[line] = true
		indent := indentOf(raw)
		for len(stack) > 0 && stack[len(stack)-1].indent >= indent {
			stack = stack[:len(stack)-1]
		}

		cands := m.candidates(line)
		if len(cands) == 0 {
			fr.failures = append(fr.failures, Failure{
				File: f.Name, LineNo: lineNo, Line: line,
				Reason: "not found matched CLI template"})
			// Leave the stack level open so children still get a parent
			// context from higher up.
			continue
		}

		var parents []int
		if len(stack) > 0 {
			parents = stack[len(stack)-1].candidates
		}
		ok, survivors := m.survivors(parents, line, cands)
		if !ok {
			fr.failures = append(fr.failures, Failure{
				File: f.Name, LineNo: lineNo, Line: line,
				Reason: "unmatched hierarchy"})
			continue
		}
		fr.matchedLines++
		for _, c := range survivors {
			fr.usedCorpora[c] = true
		}
		stack = append(stack, frame{indent: indent, candidates: survivors})
	}
	return fr
}

// ValidateConfigsNaive is the original sequential implementation, kept
// verbatim (minus telemetry) as the golden reference the equivalence tests
// hold ValidateConfigsOpts against. Unlike the mapper's naive scorer it
// cannot move into a test file yet: the root package's
// ValidateConfigs/naive benchmark row calls it too.
func ValidateConfigsNaive(ctx context.Context, v *vdm.VDM, files []configgen.File) *Report {
	rep := &Report{Files: len(files), UsedCorpora: map[int]bool{}}
	unique := map[string]bool{}
	for _, f := range files {
		if ctx.Err() != nil {
			break
		}
		var stack []frame
		for lineNo, raw := range f.Lines {
			line := strings.TrimSpace(raw)
			if line == "" {
				continue
			}
			rep.TotalLines++
			unique[line] = true
			indent := indentOf(raw)
			for len(stack) > 0 && stack[len(stack)-1].indent >= indent {
				stack = stack[:len(stack)-1]
			}

			var cands []int
			for _, id := range v.Index.Match(line) {
				if i, err := vdm.ParseCorpusID(id); err == nil {
					cands = append(cands, i)
				}
			}
			if len(cands) == 0 {
				rep.Failures = append(rep.Failures, Failure{
					File: f.Name, LineNo: lineNo, Line: line,
					Reason: "not found matched CLI template"})
				continue
			}

			ok := false
			var survivors []int
			if len(stack) == 0 {
				for _, c := range cands {
					if containsStr(v.Corpora[c].ParentViews, v.RootView) {
						ok = true
						survivors = append(survivors, c)
					}
				}
			} else {
				parent := stack[len(stack)-1]
				for _, p := range parent.candidates {
					enters := v.Enters(p)
					if len(enters) == 0 {
						continue
					}
					for _, c := range cands {
						for _, w := range enters {
							if containsStr(v.Corpora[c].ParentViews, w) {
								ok = true
								survivors = appendUnique(survivors, c)
							}
						}
					}
				}
			}
			if !ok {
				rep.Failures = append(rep.Failures, Failure{
					File: f.Name, LineNo: lineNo, Line: line,
					Reason: "unmatched hierarchy"})
				continue
			}
			rep.MatchedLines++
			for _, c := range survivors {
				rep.UsedCorpora[c] = true
			}
			stack = append(stack, frame{indent: indent, candidates: survivors})
		}
	}
	rep.UniqueLines = len(unique)
	return rep
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func appendUnique(ss []int, x int) []int {
	for _, y := range ss {
		if y == x {
			return ss
		}
	}
	return append(ss, x)
}

// LiveResult records the outcome of exercising one unused command against
// a live device.
type LiveResult struct {
	Corpus   int
	Instance string
	Accepted bool
	Verified bool // confirmed via the show command
	Err      string
}

// Machine-readable reasons a live-testing run degraded instead of
// completing. They are stable strings: operators key alerts on them and
// the pipeline surfaces them per stage.
const (
	// DegradedBreakerOpen: the device's circuit breaker opened — the
	// endpoint is effectively down and further exchanges would fast-fail.
	DegradedBreakerOpen = "breaker_open"
	// DegradedExchangeBudget: transport failures exceeded the run's
	// failure budget; the partial report covers what completed.
	DegradedExchangeBudget = "exchange_budget_exhausted"
)

// LiveReport summarizes a generated-instance testing run (§5.3).
type LiveReport struct {
	Tested   int
	Accepted int
	Verified int
	Results  []LiveResult
	// NewConfigLines are the verified instances: per the paper they become
	// empirical configurations for the next round of Figure 8 validation.
	NewConfigLines []string

	// Degraded marks a run that stopped early because the device transport
	// kept failing. The counts above cover the commands actually exercised;
	// DegradedReason says why the run stopped (one of the Degraded*
	// constants) and ExchangeFailures counts the transport errors absorbed.
	Degraded         bool
	DegradedReason   string
	ExchangeFailures int
}

// FailureBudget is the number of transport failures a live-testing run
// absorbs before it stops and degrades (see TestUnusedCommands).
const FailureBudget = 16

// Executor issues one CLI line to a device and reports the outcome; it is
// satisfied by *device.Client (over TCP) and by sessionExecutor below.
type Executor interface {
	Exec(line string) (device.Response, error)
}

// ContextExecutor is an Executor whose transport honors a context's
// deadline and cancellation. *device.Client and SessionExecutor implement
// it; execCtx upgrades to it when available so live testing aborts
// promptly instead of blocking in a dead transport.
type ContextExecutor interface {
	Executor
	ExecContext(ctx context.Context, line string) (device.Response, error)
}

// execCtx dispatches one line through ExecContext when the executor
// supports it, falling back to the plain Exec.
func execCtx(ctx context.Context, exec Executor, line string) (device.Response, error) {
	if ce, ok := exec.(ContextExecutor); ok {
		return ce.ExecContext(ctx, line)
	}
	if err := ctx.Err(); err != nil {
		return device.Response{}, err
	}
	return exec.Exec(line)
}

// sessionExecutor adapts an in-process device session to Executor.
type sessionExecutor struct{ s *device.Session }

// Exec implements Executor.
func (se sessionExecutor) Exec(line string) (device.Response, error) {
	return se.s.Exec(line), nil
}

// ExecContext implements ContextExecutor.
func (se sessionExecutor) ExecContext(ctx context.Context, line string) (device.Response, error) {
	return se.s.ExecContext(ctx, line)
}

// SessionExecutor wraps an in-process device session as an Executor, for
// running the live-testing workflow without the TCP transport.
func SessionExecutor(s *device.Session) Executor { return sessionExecutor{s: s} }

// EnterChain derives, from the validated VDM, the instantiated enter
// commands that navigate from the root view into the given view. Both the
// live-testing workflow and the SDN controller use it to reach a command's
// working view.
func EnterChain(v *vdm.VDM, view string, r *rand.Rand) ([]string, error) {
	var chain []int
	cur := view
	for cur != v.RootView {
		info := v.Views[cur]
		if info == nil {
			return nil, fmt.Errorf("empirical: unknown view %q", cur)
		}
		if info.EnterCorpus < 0 {
			return nil, fmt.Errorf("empirical: view %q has no derived enter command", cur)
		}
		chain = append([]int{info.EnterCorpus}, chain...)
		cur = info.Parent
		if len(chain) > len(v.Views) {
			return nil, fmt.Errorf("empirical: view chain for %q does not reach the root", view)
		}
	}
	var lines []string
	for _, c := range chain {
		inst, err := instantiateCorpus(v, c, r)
		if err != nil {
			return nil, err
		}
		lines = append(lines, inst)
	}
	return lines, nil
}

// instantiateCorpus renders one concrete instance of a corpus's template by
// enumerating a CGM path and filling parameter values by inferred type.
func instantiateCorpus(v *vdm.VDM, corpusIdx int, r *rand.Rand) (string, error) {
	g := v.Index.Graph(vdm.CorpusID(corpusIdx))
	if g == nil {
		return "", fmt.Errorf("empirical: corpus %d has no validated template", corpusIdx)
	}
	paths := g.Paths(1)
	if len(paths) == 0 {
		return "", fmt.Errorf("empirical: corpus %d has no root-terminal path", corpusIdx)
	}
	return InstantiatePath(paths[0], r), nil
}

// InstantiatePath renders a CGM path into a CLI instance, drawing
// parameter values by inferred type.
func InstantiatePath(path []cgm.PathElem, r *rand.Rand) string {
	toks := make([]string, 0, len(path))
	for _, el := range path {
		if el.IsParam {
			toks = append(toks, devmodel.ValueFor(devmodel.Param{Name: el.Text, Type: el.Type}, r))
		} else {
			toks = append(toks, el.Text)
		}
	}
	return strings.Join(toks, " ")
}

// TestUnusedCommands exercises every corpus not covered by the empirical
// configurations (§5.3): enumerate up to pathsPerCommand CGM paths
// (minimum 1), instantiate them with values drawn from seed, navigate the
// device into one of the command's working views, issue the instance, and
// verify it by re-reading the running configuration with showCmd.
// Verified instances are returned as new empirical configuration lines
// for the next Figure 8 round.
//
// Transport failures (dropped connections, timeouts, protocol garbage —
// anything the executor returns as an error) are absorbed up to
// FailureBudget: the affected instance is recorded as failed and the run
// moves on. When the budget is exhausted, or the executor reports an open
// circuit breaker, the run stops and returns the partial report with
// Degraded set and a machine-readable DegradedReason — not an error, so
// callers keep the coverage the run did achieve. Cancellation via ctx is
// an error, honored between commands and, when the executor implements
// ContextExecutor, inside each device exchange.
func TestUnusedCommands(ctx context.Context, v *vdm.VDM, used map[int]bool, exec Executor, showCmd string,
	pathsPerCommand int, seed uint64) (*LiveReport, error) {
	if pathsPerCommand <= 0 {
		pathsPerCommand = 1
	}
	ctx, span := telemetry.Span(ctx, "validate.live", "vendor", v.Vendor)
	defer span.End()
	r := rand.New(rand.NewPCG(seed, 0x11fe))
	rep := &LiveReport{}
	// absorb classifies one transport failure: cancellation aborts the
	// run, an open breaker or an exhausted budget degrades it, anything
	// else is tolerated and the caller skips to the next instance.
	absorb := func(err error) (stop bool, hard error) {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return true, ctxErr
		}
		rep.ExchangeFailures++
		if errors.Is(err, device.ErrBreakerOpen) {
			rep.Degraded, rep.DegradedReason = true, DegradedBreakerOpen
			return true, nil
		}
		if rep.ExchangeFailures >= FailureBudget {
			rep.Degraded, rep.DegradedReason = true, DegradedExchangeBudget
			return true, nil
		}
		return false, nil
	}
corpora:
	for i := range v.Corpora {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if used[i] {
			continue
		}
		g := v.Index.Graph(vdm.CorpusID(i))
		if g == nil {
			continue // invalid template: already reported by syntax validation
		}
		views := v.Corpora[i].ParentViews
		if len(views) == 0 {
			continue
		}
		chain, err := EnterChain(v, views[0], r)
		if err != nil {
			rep.Results = append(rep.Results, LiveResult{Corpus: i, Err: err.Error()})
			continue
		}
		for _, path := range g.Paths(pathsPerCommand) {
			inst := InstantiatePath(path, r)
			rep.Tested++
			res := LiveResult{Corpus: i, Instance: inst}
			stop, hard := runInstance(ctx, exec, chain, inst, showCmd, &res, rep, absorb)
			rep.Results = append(rep.Results, res)
			if hard != nil {
				return nil, hard
			}
			if stop {
				break corpora
			}
		}
	}
	telemetry.GetCounter("nassim_empirical_live_instances_total", "result", "accepted").Add(int64(rep.Accepted))
	telemetry.GetCounter("nassim_empirical_live_instances_total", "result", "rejected").
		Add(int64(rep.Tested - rep.Accepted))
	telemetry.GetCounter("nassim_empirical_live_instances_total", "result", "verified").Add(int64(rep.Verified))
	if rep.Degraded {
		telemetry.GetCounter("nassim_live_degraded_total", "reason", rep.DegradedReason).Inc()
		telemetry.Logger(telemetry.ComponentEmpirical).Warn("live testing degraded",
			"vendor", v.Vendor, "reason", rep.DegradedReason,
			"exchange_failures", rep.ExchangeFailures, "tested", rep.Tested)
	}
	telemetry.Logger(telemetry.ComponentEmpirical).Debug("live-tested unused commands",
		"vendor", v.Vendor, "tested", rep.Tested, "accepted", rep.Accepted, "verified", rep.Verified)
	return rep, nil
}

// runInstance exercises one generated instance: reset to the root view,
// replay the enter chain, issue the instance, verify via the show command.
// Semantic rejections are recorded in res and end the instance; transport
// failures go through absorb, whose verdict is propagated — stop ends the
// whole run (degradation), hard aborts it with an error, and neither
// means the instance is skipped and the run continues.
func runInstance(ctx context.Context, exec Executor, chain []string, inst, showCmd string,
	res *LiveResult, rep *LiveReport, absorb func(error) (bool, error)) (stop bool, hard error) {
	exchange := func(line string) (device.Response, bool) {
		resp, err := execCtx(ctx, exec, line)
		if err == nil {
			return resp, true
		}
		res.Err = err.Error()
		stop, hard = absorb(err)
		return device.Response{}, false
	}
	if _, ok := exchange("return"); !ok {
		return stop, hard
	}
	for _, line := range chain {
		resp, ok := exchange(line)
		if !ok {
			return stop, hard
		}
		if !resp.OK {
			res.Err = "navigation rejected: " + resp.Msg
			return false, nil
		}
	}
	resp, ok := exchange(inst)
	if !ok {
		return stop, hard
	}
	if !resp.OK {
		res.Err = resp.Msg
		return false, nil
	}
	res.Accepted = true
	rep.Accepted++
	show, ok := exchange(showCmd)
	if !ok {
		return stop, hard
	}
	if show.Shows(inst) {
		res.Verified = true
		rep.Verified++
		rep.NewConfigLines = append(rep.NewConfigLines, inst)
	}
	return false, nil
}
