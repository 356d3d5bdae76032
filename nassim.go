// Package nassim is a Go reproduction of NAssim (SIGCOMM 2022):
// "Software-Defined Network Assimilation: Bridging the Last Mile Towards
// Centralized Network Configuration Management with NAssim".
//
// NAssim assists NetOps engineers in Software-defined Network Assimilation
// (SNA): on-boarding heterogeneous devices — legacy and new-vendor — into an
// SDN network whose controller speaks a Unified Device Model (UDM).
//
// The one-call entry point drives the staged pipeline engine
// (internal/pipeline) over any number of vendors concurrently, with
// artifact caching and context cancellation:
//
//	res, err := nassim.Assimilate(ctx, nassim.Options{Scale: 0.1, Workers: 4})
//
// The step-by-step API mirrors the paper's two phases for callers that
// want to drive individual stages:
//
// VDM construction phase:
//
//	pages  := ...                                  // vendor manual pages (HTML)
//	parsed, _ := nassim.ParseManual(ctx, "Huawei", pages)
//	// review parsed.Completeness, fix the parser, iterate (TDD, §4)
//	model, report := nassim.BuildVDM(ctx, "Huawei", parsed.Corpora, parsed.Hierarchy)
//	// review model.InvalidCLIs, apply expert corrections, rebuild (§5.1)
//	empirical := nassim.ValidateConfigs(ctx, model, configFiles)   // §5.3
//
// VDM-UDM mapping phase:
//
//	u := nassim.BuildUDM()
//	m, _ := nassim.NewMapper(u, nassim.ModelNetBERT)
//	m.FineTune(model, u, trainAnnotations, 10, 1, seed)       // §6.3
//	recs := m.Recommend(nassim.ExtractContext(model, param), 10)
//
// The proprietary inputs of the paper (vendor manuals, production
// configuration files, real devices, the expert-built UDM) are replaced by
// faithful synthetic substrates generated from one ground-truth device
// model; see DESIGN.md for the substitution table. The Synthetic* helpers
// below expose them.
package nassim

import (
	"context"
	"fmt"
	"time"

	"nassim/internal/configgen"
	"nassim/internal/corpus"
	"nassim/internal/device"
	"nassim/internal/devmodel"
	"nassim/internal/empirical"
	"nassim/internal/hierarchy"
	"nassim/internal/mapper"
	"nassim/internal/nlp"
	"nassim/internal/parser"
	"nassim/internal/pipeline"
	"nassim/internal/telemetry"
	"nassim/internal/udm"
	"nassim/internal/vdm"
)

// Re-exported core types. The heavy lifting lives in internal packages;
// these aliases are the supported public surface.
type (
	// Page is one manual page to parse (HTML + source URL).
	Page = parser.Page
	// Corpus is one parsed manual page in the vendor-independent format.
	Corpus = corpus.Corpus
	// VDM is the validated vendor-specific device model.
	VDM = vdm.VDM
	// Parameter addresses one placeholder parameter of one corpus.
	Parameter = vdm.Parameter
	// UDM is the controller's unified device model.
	UDM = udm.Tree
	// Edge is an explicit view-hierarchy edge (vendors like Nokia publish
	// them in the manual).
	Edge = hierarchy.Edge
	// DeriveReport summarizes hierarchy derivation.
	DeriveReport = hierarchy.Report
	// CompletenessReport is the parser TDD violation report.
	CompletenessReport = corpus.Report
	// EmpiricalReport summarizes configuration-file validation.
	EmpiricalReport = empirical.Report
	// LiveReport summarizes generated-instance testing on a device.
	LiveReport = empirical.LiveReport
	// ConfigFile is one running-device configuration file.
	ConfigFile = configgen.File
	// Annotation is one expert-labelled VDM-parameter/UDM-attribute pair.
	Annotation = mapper.Annotation
	// Recommendation is one ranked UDM attribute for a VDM parameter.
	Recommendation = mapper.Recommendation
	// ParamContext is the extracted semantic context of a VDM parameter.
	ParamContext = mapper.ParamContext
	// EvalResult holds recall@top-k and MRR for one model.
	EvalResult = mapper.EvalResult
	// FineTuneStats reports what NetBERT domain adaptation learned.
	FineTuneStats = nlp.FineTuneStats
	// TrainExample is one fine-tuning pair (VDM-side and UDM-side context
	// tokens of an expert-confirmed mapping).
	TrainExample = nlp.TrainExample
	// DeviceModel is a ground-truth device model (synthetic substrate).
	DeviceModel = devmodel.Model
	// Device is a simulated configurable network device.
	Device = device.Device
	// DeviceClient is a CLI session against a device served over TCP.
	DeviceClient = device.Client
	// DeviceServer serves a simulated device over TCP.
	DeviceServer = device.Server
)

// Vendors lists the vendors with built-in manual parsers, in Table 4 order.
func Vendors() []string { return parser.Vendors() }

// CorpusID formats a corpus index as the template-index ID used by a VDM's
// instance-matching index.
func CorpusID(i int) string { return vdm.CorpusID(i) }

// ParseResult is the outcome of parsing one vendor manual.
type ParseResult struct {
	Corpora      []Corpus
	Hierarchy    []Edge // explicit view edges, when the vendor publishes them
	Completeness *CompletenessReport
	// Pool reports the parse worker pool's per-worker busy time and
	// utilization — observational only, excluded from serialization and
	// golden comparisons.
	Pool PoolStats `json:"-"`
}

// PoolStats is one stage-internal worker pool's busy-time accounting.
type PoolStats = telemetry.PoolStats

// ParseManual parses vendor manual pages into the vendor-independent corpus
// format and runs the Appendix B completeness tests (the parser TDD loop's
// validating() step). Cancellation via ctx is honored between pages.
func ParseManual(ctx context.Context, vendor string, pages []Page) (*ParseResult, error) {
	return ParseManualWorkers(ctx, vendor, pages, 0)
}

// ParseManualWorkers is ParseManual with a bounded per-page worker pool:
// workers below 1 take GOMAXPROCS, every count is clamped to GOMAXPROCS,
// and one worker parses on the calling goroutine. Every count runs the
// same parser, and the result is identical at any worker count.
func ParseManualWorkers(ctx context.Context, vendor string, pages []Page, workers int) (*ParseResult, error) {
	p, err := parser.New(vendor)
	if err != nil {
		return nil, err
	}
	p.SetWorkers(workers)
	res, rep := p.ParseAndValidate(ctx, pages)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	edges := make([]Edge, len(res.Hierarchy))
	for i, e := range res.Hierarchy {
		edges[i] = Edge{Parent: e.Parent, Child: e.Child}
	}
	return &ParseResult{Corpora: res.Corpora, Hierarchy: edges, Completeness: rep,
		Pool: res.Pool}, nil
}

// Correction is one expert fix of a manual's CLI template, applied after
// formal syntax validation flags it (§5.1: experts "conduct targeted
// interventions to correct them").
type Correction = pipeline.Correction

// ApplyCorrections replaces the flagged primary CLI of each addressed
// corpus in place, preserving any non-flagged sibling CLIs the corpus
// documents. It returns how many corrections were applied; corrections
// addressing out-of-range corpus indices are rejected and listed in the
// returned error (the in-range ones still apply).
func ApplyCorrections(corpora []Corpus, fixes []Correction) (int, error) {
	return pipeline.ApplyCorrections(corpora, fixes)
}

// BuildVDM runs the Validator's syntax-validation and hierarchy-derivation
// stages over a parsed corpus, producing the validated VDM (§5.1, §5.2).
// Cancellation via ctx is honored between corpora.
func BuildVDM(ctx context.Context, vendor string, corpora []Corpus, explicit []Edge) (*VDM, *DeriveReport) {
	return hierarchy.Derive(ctx, vendor, corpora, explicit, nil)
}

// ValidateHierarchy checks the structural consistency of a derived VDM.
func ValidateHierarchy(v *VDM) []hierarchy.Issue {
	return hierarchy.ValidateHierarchy(v)
}

// MarshalVDM serializes a validated VDM (with its derived hierarchy) so an
// assimilation run's output can be stored and reloaded.
func MarshalVDM(v *VDM) ([]byte, error) { return v.Marshal() }

// UnmarshalVDM reloads a persisted VDM, rebuilding its template index.
func UnmarshalVDM(data []byte) (*VDM, error) { return vdm.Unmarshal(data, nil) }

// ValidateConfigs runs the Figure 8 empirical-data validation workflow.
// Cancellation via ctx is honored between files.
func ValidateConfigs(ctx context.Context, v *VDM, files []ConfigFile) *EmpiricalReport {
	return empirical.ValidateConfigs(ctx, v, files)
}

// TestUnusedCommands exercises commands unused by empirical configurations
// against a (simulated) device reachable through exec, verifying accepted
// instances via showCmd (§5.3). It is the one live-testing path: the
// pipeline's live_test stage calls it too. Transport failures are
// absorbed up to a fixed budget; past it, or once the device's circuit
// breaker opens, the run stops and returns a partial report with Degraded
// set and a DegradedReason, not an error. Cancellation via ctx is an
// error, honored between commands and, for context-aware executors,
// inside each device exchange.
func TestUnusedCommands(ctx context.Context, v *VDM, used map[int]bool, exec empirical.Executor,
	showCmd string, pathsPerCommand int, seed uint64) (*LiveReport, error) {
	return empirical.TestUnusedCommands(ctx, v, used, exec, showCmd, pathsPerCommand, seed)
}

// SessionExecutor adapts an in-process device session for TestUnusedCommands.
func SessionExecutor(s *device.Session) empirical.Executor {
	return empirical.SessionExecutor(s)
}

// ModelKind selects a Mapper model combination (§7.3's comparison).
type ModelKind string

// The seven model combinations of Tables 5/6.
const (
	ModelIR        ModelKind = "IR"
	ModelSimCSE    ModelKind = "SimCSE"
	ModelSBERT     ModelKind = "SBERT"
	ModelNetBERT   ModelKind = "NetBERT"
	ModelIRSimCSE  ModelKind = "IR+SimCSE"
	ModelIRSBERT   ModelKind = "IR+SBERT"
	ModelIRNetBERT ModelKind = "IR+NetBERT"
)

// AllModelKinds lists the model combinations in Table 5 row order.
func AllModelKinds() []ModelKind {
	return []ModelKind{ModelIR, ModelSimCSE, ModelSBERT,
		ModelIRSimCSE, ModelIRSBERT, ModelNetBERT, ModelIRNetBERT}
}

// EncoderDim is the sentence-embedding dimensionality of the simulated
// encoders.
const EncoderDim = 96

// Mapper recommends UDM attributes for VDM parameters. It wraps the
// underlying model and, for NetBERT kinds, the fine-tunable encoder.
type Mapper struct {
	*mapper.Mapper
	netbert *nlp.NetBERT
}

// NewMapper builds a Mapper of the given kind over a UDM.
func NewMapper(u *UDM, kind ModelKind) (*Mapper, error) {
	syn := devmodel.GeneralSynonyms()
	var enc nlp.Encoder
	var nb *nlp.NetBERT
	useIR := false
	switch kind {
	case ModelIR:
		useIR = true
	case ModelSimCSE:
		enc = nlp.NewSimCSE(EncoderDim, syn)
	case ModelSBERT:
		enc = nlp.NewSBERT(EncoderDim, syn)
	case ModelNetBERT:
		nb = nlp.NewNetBERT(EncoderDim, syn)
		enc = nb
	case ModelIRSimCSE:
		useIR = true
		enc = nlp.NewSimCSE(EncoderDim, syn)
	case ModelIRSBERT:
		useIR = true
		enc = nlp.NewSBERT(EncoderDim, syn)
	case ModelIRNetBERT:
		useIR = true
		nb = nlp.NewNetBERT(EncoderDim, syn)
		enc = nb
	default:
		return nil, fmt.Errorf("nassim: unknown mapper model %q", kind)
	}
	m, err := mapper.New(u, enc, useIR)
	if err != nil {
		return nil, err
	}
	return &Mapper{Mapper: m, netbert: nb}, nil
}

// FineTune domain-adapts a NetBERT-backed mapper on annotated pairs
// (negRatio-fold negative sampling, the given number of epochs) and
// refreshes the UDM embeddings. It fails for non-NetBERT mappers.
func (m *Mapper) FineTune(v *VDM, u *UDM, train []Annotation, negRatio, epochs int, seed uint64) (FineTuneStats, error) {
	return m.FineTuneExamples(mapper.BuildTrainExamples(v, u, train), negRatio, epochs, seed)
}

// FineTuneExamples is FineTune over pre-built training pairs — use it to
// mix annotations from several previously assimilated vendors (each pair
// is built against its own VDM via BuildTrainingPairs).
func (m *Mapper) FineTuneExamples(examples []TrainExample, negRatio, epochs int, seed uint64) (FineTuneStats, error) {
	if m.netbert == nil {
		return FineTuneStats{}, fmt.Errorf("nassim: model %s is not fine-tunable", m.Name())
	}
	_, span := telemetry.Span(context.Background(), "mapper.finetune",
		"model", m.Name(), "examples", len(examples), "epochs", epochs)
	defer span.End()
	start := time.Now()
	stats := m.netbert.FineTune(examples, negRatio, epochs, seed)
	m.RefreshUDM()
	telemetry.GetCounter("nassim_mapper_finetune_runs_total", "model", m.Name()).Inc()
	telemetry.GetCounter("nassim_mapper_finetune_epochs_total", "model", m.Name()).Add(int64(epochs))
	telemetry.GetHistogram("nassim_mapper_finetune_seconds", nil, "model", m.Name()).
		ObserveDuration(time.Since(start))
	telemetry.Logger(telemetry.ComponentMapper).Debug("fine-tuned encoder",
		"model", m.Name(), "examples", len(examples), "epochs", epochs,
		"elapsed", time.Since(start))
	return stats, nil
}

// BuildTrainingPairs converts annotations into fine-tuning pairs against
// the VDM they were labelled on.
func BuildTrainingPairs(v *VDM, u *UDM, train []Annotation) []TrainExample {
	return mapper.BuildTrainExamples(v, u, train)
}

// ExtractContext collects the semantic context of a VDM parameter (§6.1).
func ExtractContext(v *VDM, p Parameter) ParamContext {
	return mapper.ExtractContext(v, p)
}

// Evaluate measures a mapper against annotations (recall@top-k, MRR).
func Evaluate(m *Mapper, v *VDM, u *UDM, annotations []Annotation, ks []int) EvalResult {
	return mapper.Evaluate(m.Mapper, v, u, annotations, ks)
}

// AccelerationFactor converts a recall@k percentage into the paper's
// headline speedup (89% top-10 recall => experts consult the manual 11% of
// the time => 9.1x).
func AccelerationFactor(recallPercent float64) float64 {
	return mapper.AccelerationFactor(recallPercent)
}

// Explain renders a recommendation list with its semantic context.
func Explain(ctx ParamContext, recs []Recommendation) string {
	return mapper.Explain(ctx, recs)
}
