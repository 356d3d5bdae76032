package pipeline

import (
	"fmt"

	"nassim/internal/artifact"
	"nassim/internal/corpus"
	"nassim/internal/empirical"
	"nassim/internal/hierarchy"
	"nassim/internal/mapper"
	"nassim/internal/telemetry"
	"nassim/internal/udm"
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

// stringsPerCorpus sizes the string-pool index of the parse and derive
// artifacts from their corpus count. At paper scale the two large manuals
// intern 3.6 (Nokia's parse artifact) to 6.4 (Huawei's derive artifact)
// strings per corpus, so their indices never regrow; the small Cisco and
// H3C manuals reach 9.1 and may.
const stringsPerCorpus = 7

// --- parse artifact ---------------------------------------------------------

// parseBinaryCodec stores the Parse stage's output as a nassim-art/v1
// document: the corpora string pool plus offset tables, the explicit
// hierarchy edges, and the completeness report. Warm hits alias corpus
// text straight out of the read buffer instead of re-parsing JSON.
type parseBinaryCodec struct{}

func (parseBinaryCodec) Version() string { return "parse.v1.art" }

func (parseBinaryCodec) Encode(a *parseArtifact) ([]byte, error) {
	w := artifact.NewWriter("parse/v1", stringsPerCorpus*len(a.Corpora))
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
// JSON parsing, template parsing, and FSM construction alike. It stores
// no durations: the bytes are a function of the artifact key, so two cold
// runs write the same file.
type deriveBinaryCodec struct{}

func (deriveBinaryCodec) Version() string { return "derive.v2.art" }

func (deriveBinaryCodec) Encode(a *deriveArtifact) ([]byte, error) {
	w := artifact.NewWriter("derive/v2", stringsPerCorpus*len(a.VDM.Corpora))
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
	}
	return w.Bytes(), nil
}

func (deriveBinaryCodec) Decode(data []byte) (*deriveArtifact, error) {
	r, err := artifact.OpenSchema(data, "derive/v2")
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
		a.Report = rep
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// --- empirical artifact -----------------------------------------------------

// empiricalCodec stores the EmpiricalValidate stage's report: the four
// counts, the used corpora as an ascending index list (so one report
// always writes the same bytes) and the failures. It is built per job:
// corpora is the job's VDM corpus count, and a decoded index outside it is
// a decode error. Pool is observational and is not stored; a decoded
// report has a zero Pool.
type empiricalCodec struct{ corpora int }

func (empiricalCodec) Version() string { return "empirical.v1.art" }

func (empiricalCodec) Encode(r *empirical.Report) ([]byte, error) {
	w := artifact.NewWriter("empirical/v1", 0)
	e := w.Section("report")
	e.Int(int64(r.Files))
	e.Int(int64(r.TotalLines))
	e.Int(int64(r.UniqueLines))
	e.Int(int64(r.MatchedLines))
	used := sortedUsed(r.UsedCorpora)
	e.Len(len(used), r.UsedCorpora == nil)
	for _, c := range used {
		e.Uvarint(uint64(c))
	}
	e.Len(len(r.Failures), r.Failures == nil)
	for _, f := range r.Failures {
		e.String(f.File)
		e.Int(int64(f.LineNo))
		e.String(f.Line)
		e.String(f.Reason)
	}
	return w.Bytes(), nil
}

func (c empiricalCodec) Decode(data []byte) (*empirical.Report, error) {
	r, err := artifact.OpenSchema(data, "empirical/v1")
	if err != nil {
		return nil, err
	}
	d, err := r.Section("report")
	if err != nil {
		return nil, err
	}
	rep := &empirical.Report{
		Files:        int(d.Int()),
		TotalLines:   int(d.Int()),
		UniqueLines:  int(d.Int()),
		MatchedLines: int(d.Int()),
	}
	if n, isNil := d.Len(); !isNil {
		if n > c.corpora {
			return nil, fmt.Errorf("pipeline: empirical artifact: %d used corpora, VDM has %d", n, c.corpora)
		}
		rep.UsedCorpora = make(map[int]bool, n)
		prev := -1
		for i := 0; i < n; i++ {
			u := d.Uvarint()
			if d.Err() != nil {
				return nil, d.Err()
			}
			if u >= uint64(c.corpora) || int(u) <= prev {
				return nil, fmt.Errorf("pipeline: empirical artifact: corpus index %d after %d, want ascending in [0,%d)",
					u, prev, c.corpora)
			}
			prev = int(u)
			rep.UsedCorpora[prev] = true
		}
	}
	if n, isNil := d.Len(); !isNil {
		rep.Failures = make([]empirical.Failure, n)
		for i := range rep.Failures {
			rep.Failures[i] = empirical.Failure{File: d.String(), LineNo: int(d.Int()), Line: d.String(), Reason: d.String()}
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// --- map artifact -----------------------------------------------------------

// mapCodec stores the MapToUDM stage's mappings. It is built per job from
// the job's parameter list, the mapper's attributes and the top-k, all of
// which the stage key already hashes (the attributes through
// Mapper.Fingerprint). So each mapping stores only its recommendations, as
// (attribute index, score bits) pairs, and decoding relinks Param and Attr
// from the lists. A mapping count other than len(params), more than topK
// recommendations in a mapping, or an attribute index out of range is a
// decode error.
type mapCodec struct {
	params []vdm.Parameter
	attrs  []udm.Attribute
	topK   int
}

func (mapCodec) Version() string { return "map.v1.art" }

func (mapCodec) Encode(ms []Mapping) ([]byte, error) {
	w := artifact.NewWriter("map/v1", 0)
	e := w.Section("mappings")
	e.Len(len(ms), ms == nil)
	total := 0
	for _, m := range ms {
		total += len(m.Recommendations)
	}
	e.Uvarint(uint64(total))
	for _, m := range ms {
		e.Len(len(m.Recommendations), m.Recommendations == nil)
		for _, r := range m.Recommendations {
			e.Uvarint(uint64(r.AttrIndex))
			e.Float64(r.Score)
		}
	}
	return w.Bytes(), nil
}

// minRecBytes is the smallest encoding of one recommendation: a one-byte
// index varint and the 8 score bytes.
const minRecBytes = 9

func (c mapCodec) Decode(data []byte) ([]Mapping, error) {
	r, err := artifact.OpenSchema(data, "map/v1")
	if err != nil {
		return nil, err
	}
	d, err := r.Section("mappings")
	if err != nil {
		return nil, err
	}
	n, isNil := d.Len()
	total := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n != len(c.params) {
		return nil, fmt.Errorf("pipeline: map artifact: %d mappings, job has %d parameters", n, len(c.params))
	}
	// Every recommendation costs minRecBytes, so a forged total cannot
	// allocate more than the file could hold.
	if total > uint64(len(data)/minRecBytes) {
		return nil, fmt.Errorf("pipeline: map artifact: %d recommendations in %d bytes", total, len(data))
	}
	flat := make([]mapper.Recommendation, total)
	var out []Mapping
	if !isNil {
		out = make([]Mapping, n)
	}
	for i := range out {
		out[i].Param = c.params[i]
		k, isNil := d.Len()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if k > c.topK || k > len(flat) {
			return nil, fmt.Errorf("pipeline: map artifact: mapping %d has %d recommendations, top-k %d, %d left",
				i, k, c.topK, len(flat))
		}
		if isNil {
			continue
		}
		recs := flat[:k:k]
		flat = flat[k:]
		for j := range recs {
			idx, score := d.Uvarint(), d.Float64()
			if err := d.Err(); err != nil {
				return nil, err
			}
			if idx >= uint64(len(c.attrs)) {
				return nil, fmt.Errorf("pipeline: map artifact: attribute index %d out of range [0,%d)", idx, len(c.attrs))
			}
			recs[j] = mapper.Recommendation{AttrIndex: int(idx), Attr: c.attrs[idx], Score: score}
		}
		out[i].Recommendations = recs
	}
	if len(flat) != 0 {
		return nil, fmt.Errorf("pipeline: map artifact: %d recommendations unclaimed", len(flat))
	}
	return out, nil
}

// The codecs the engine wires into the stage graph. The empirical and map
// codecs are built per job (they carry the job's corpus count, parameters
// and attributes); syntax_cgm has none and stays in memory, and live_test
// is never stored.
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
