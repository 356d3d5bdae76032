package pipeline

import (
	"fmt"
	"time"

	"nassim/internal/artifact"
	"nassim/internal/corpus"
	"nassim/internal/hierarchy"
	"nassim/internal/telemetry"
	"nassim/internal/vdm"
)

// ArtifactFormat names the on-disk artifact container the engine writes;
// run manifests record it so a stored run says what layout produced it.
const ArtifactFormat = "nassim-art/v1"

// Codec (de)serializes one artifact type for the on-disk cache. Stages
// without a codec cache in memory only. Version names the codec and its
// layout revision; DiskStore embeds it in the artifact filename, so a
// format bump can never read a stale-layout file — the old name simply
// does not exist and the stage re-runs (satellite: versioned keys).
type Codec[T any] interface {
	// Version is the filename suffix, e.g. "parse.v1.art".
	Version() string
	Encode(T) ([]byte, error)
	Decode([]byte) (T, error)
}

// --- parse artifact ---------------------------------------------------------

// parseBinaryCodec stores the Parse stage's output as a nassim-art/v1
// document: the corpora string pool plus offset tables, the explicit
// hierarchy edges, and the completeness report. Warm hits alias corpus
// text straight out of the read buffer instead of re-parsing JSON.
type parseBinaryCodec struct{}

func (parseBinaryCodec) Version() string { return "parse.v1.art" }

func (parseBinaryCodec) Encode(a *parseArtifact) ([]byte, error) {
	w := artifact.NewWriter("parse/v1")
	corpus.AppendBinary(w.Section("corpora"), a.Corpora)
	he := w.Section("hierarchy")
	he.Len(len(a.Hierarchy), a.Hierarchy == nil)
	for _, ed := range a.Hierarchy {
		he.String(ed.Parent)
		he.String(ed.Child)
	}
	corpus.AppendReportBinary(w.Section("completeness"), a.Completeness)
	return w.Bytes(), nil
}

func (parseBinaryCodec) Decode(data []byte) (*parseArtifact, error) {
	r, err := artifact.OpenSchema(data, "parse/v1")
	if err != nil {
		return nil, err
	}
	a := &parseArtifact{}
	cd, err := r.Section("corpora")
	if err != nil {
		return nil, err
	}
	if a.Corpora, err = corpus.DecodeBinary(cd); err != nil {
		return nil, err
	}
	hd, err := r.Section("hierarchy")
	if err != nil {
		return nil, err
	}
	if n, isNil := hd.Len(); !isNil {
		a.Hierarchy = make([]hierarchy.Edge, n)
		for i := range a.Hierarchy {
			a.Hierarchy[i] = hierarchy.Edge{Parent: hd.String(), Child: hd.String()}
		}
	}
	if err := hd.Err(); err != nil {
		return nil, err
	}
	rd, err := r.Section("completeness")
	if err != nil {
		return nil, err
	}
	if a.Completeness, err = corpus.DecodeReportBinary(rd); err != nil {
		return nil, err
	}
	return a, nil
}

// --- derive artifact --------------------------------------------------------

// deriveBinaryCodec stores the DeriveHierarchy stage's output — the
// validated VDM including its compiled CGM index — so a warm start skips
// JSON parsing, template parsing, and FSM construction alike.
type deriveBinaryCodec struct{}

func (deriveBinaryCodec) Version() string { return "derive.v1.art" }

func (deriveBinaryCodec) Encode(a *deriveArtifact) ([]byte, error) {
	w := artifact.NewWriter("derive/v1")
	a.VDM.AppendBinary(w.Section("vdm"))
	re := w.Section("report")
	if a.Report == nil {
		re.Bool(false)
	} else {
		re.Bool(true)
		re.String(a.Report.RootView)
		re.Int(int64(a.Report.InvalidCLIs))
		re.Int(int64(a.Report.StrongVotes))
		re.Int(int64(a.Report.WeakVotes))
		re.Len(len(a.Report.AmbiguousViews), a.Report.AmbiguousViews == nil)
		for _, s := range a.Report.AmbiguousViews {
			re.String(s)
		}
		re.Len(len(a.Report.UnresolvedViews), a.Report.UnresolvedViews == nil)
		for _, s := range a.Report.UnresolvedViews {
			re.String(s)
		}
		re.Int(int64(a.Report.CGMBuildTime))
		re.Int(int64(a.Report.DeriveTime))
	}
	return w.Bytes(), nil
}

func (deriveBinaryCodec) Decode(data []byte) (*deriveArtifact, error) {
	r, err := artifact.OpenSchema(data, "derive/v1")
	if err != nil {
		return nil, err
	}
	vd, err := r.Section("vdm")
	if err != nil {
		return nil, err
	}
	v, err := vdm.DecodeBinary(vd)
	if err != nil {
		return nil, err
	}
	a := &deriveArtifact{VDM: v}
	rd, err := r.Section("report")
	if err != nil {
		return nil, err
	}
	if rd.Bool() {
		rep := &hierarchy.Report{
			RootView:    rd.String(),
			InvalidCLIs: int(rd.Int()),
			StrongVotes: int(rd.Int()),
			WeakVotes:   int(rd.Int()),
		}
		if n, isNil := rd.Len(); !isNil {
			rep.AmbiguousViews = make([]string, n)
			for i := range rep.AmbiguousViews {
				rep.AmbiguousViews[i] = rd.String()
			}
		}
		if n, isNil := rd.Len(); !isNil {
			rep.UnresolvedViews = make([]string, n)
			for i := range rep.UnresolvedViews {
				rep.UnresolvedViews[i] = rd.String()
			}
		}
		rep.CGMBuildTime = time.Duration(rd.Int())
		rep.DeriveTime = time.Duration(rd.Int())
		a.Report = rep
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// The codecs the engine wires into the stage graph.
var (
	parseCodec  Codec[*parseArtifact]  = parseBinaryCodec{}
	deriveCodec Codec[*deriveArtifact] = deriveBinaryCodec{}
)

// StoredArtifact is one disk-mirrored artifact blob plus the codec version
// that wrote it, as returned by Engine.StoredArtifacts.
type StoredArtifact struct {
	Stage Stage
	Codec string
	Data  []byte
}

// StoredArtifacts reads the disk mirror's encoded artifacts for a job's
// cache keys without decoding or running anything. It resolves the same
// keys runJob would: parse from the pages hash, derive from the syntax
// key — assuming no expert corrections, since resolving a correction set
// requires executing the syntax stage (benchmark jobs pass Correct nil).
// The blobs come back undecoded so DecodeStoredArtifact can measure the
// warm path's decode cost in isolation — the measurement behind
// BENCH_frontend.json's decode_ns_per_artifact derived figure.
func (e *Engine) StoredArtifacts(job Job) ([]StoredArtifact, error) {
	if e.disk == nil {
		return nil, fmt.Errorf("pipeline: engine has no disk mirror")
	}
	var out []StoredArtifact
	parseKey := Key(StageParse, hashPages(job.Vendor, job.Pages))
	if data, ok := e.disk.GetBytes(StageParse, parseKey, parseCodec.Version()); ok {
		out = append(out, StoredArtifact{Stage: StageParse, Codec: parseCodec.Version(), Data: data})
	}
	deriveKey := Key(StageDeriveHierarchy, Key(StageSyntaxValidate, parseKey), HashStrings())
	if data, ok := e.disk.GetBytes(StageDeriveHierarchy, deriveKey, deriveCodec.Version()); ok {
		out = append(out, StoredArtifact{Stage: StageDeriveHierarchy, Codec: deriveCodec.Version(), Data: data})
	}
	return out, nil
}

// DecodeStoredArtifact decodes one stored blob through its stage's wired
// codec, discarding the result.
func DecodeStoredArtifact(a StoredArtifact) error {
	switch a.Stage {
	case StageParse:
		_, err := parseCodec.Decode(a.Data)
		return err
	case StageDeriveHierarchy:
		_, err := deriveCodec.Decode(a.Data)
		return err
	default:
		return fmt.Errorf("pipeline: stage %s has no disk codec", a.Stage)
	}
}

// noteDiskLoad records one successful warm decode from the disk mirror
// into the job result (for the run manifest) and telemetry.
func (jr *JobResult) noteDiskLoad(stage Stage, version string, bytes int) {
	if jr.DiskLoads == nil {
		jr.DiskLoads = map[Stage]ArtifactLoad{}
	}
	jr.DiskLoads[stage] = ArtifactLoad{Codec: version, Bytes: int64(bytes)}
	telemetry.GetCounter("nassim_artifact_decode_total", "codec", version).Inc()
}

// noteDiskLoadError records a rejected disk artifact (truncated, corrupt,
// wrong version): the stage treats it as a cache miss and re-runs.
func noteDiskLoadError(stage Stage, version string, err error) {
	telemetry.GetCounter("nassim_artifact_decode_errors_total", "codec", version).Inc()
	telemetry.Logger("pipeline").Warn("disk artifact rejected; treating as cache miss",
		"stage", string(stage), "codec", version, "err", fmt.Sprint(err))
}
