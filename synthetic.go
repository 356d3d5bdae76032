package nassim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"nassim/internal/configgen"
	"nassim/internal/device"
	"nassim/internal/devmodel"
	"nassim/internal/manualgen"
	"nassim/internal/udm"
	"nassim/internal/vdm"
)

// This file exposes the synthetic substrates that replace the paper's
// proprietary inputs (vendor manuals, datacenter configuration files, real
// devices, the expert-built UDM and its annotations). Everything derives
// from one ground-truth DeviceModel per vendor, so pipeline outputs are
// checkable against known truth. See DESIGN.md's substitution table.

// SyntheticModel generates the ground-truth device model for a vendor at
// the given scale (1.0 reproduces the Table 4 sizes: 12 874 Huawei
// commands, 14 046 Nokia, ...; smaller scales shrink proportionally).
func SyntheticModel(vendor string, scale float64) (*DeviceModel, error) {
	v, err := vendorByName(vendor)
	if err != nil {
		return nil, err
	}
	cfg := devmodel.PaperConfig(v)
	if scale < 1.0 {
		cfg = cfg.Scaled(scale)
	}
	return devmodel.Generate(cfg), nil
}

func vendorByName(vendor string) (devmodel.Vendor, error) {
	for _, v := range append(append([]devmodel.Vendor{}, devmodel.AllVendors...), devmodel.Juniper) {
		if string(v) == vendor {
			return v, nil
		}
	}
	return "", fmt.Errorf("nassim: unknown vendor %q (have %v plus Juniper)", vendor, Vendors())
}

// SyntheticManual renders the model's online user manual: per-vendor HTML
// with the Table 1 CSS conventions, the §2.2 intra-vendor inconsistencies,
// and the injected human-writing errors the Validator must catch.
func SyntheticManual(m *DeviceModel) []Page {
	man := manualgen.Render(m)
	pages := make([]Page, len(man.Pages))
	for i, pg := range man.Pages {
		pages[i] = Page{URL: pg.URL, HTML: pg.HTML}
	}
	return pages
}

// SyntheticConfigs generates running-device configuration files with the
// datacenter skew of §7.2 (many files, few distinct templates). The second
// return is false for vendors without a configuration corpus in the paper
// (Cisco, H3C).
func SyntheticConfigs(m *DeviceModel, scale float64) ([]ConfigFile, bool) {
	cfg, ok := configgen.PaperConfig(m.Vendor)
	if !ok {
		return nil, false
	}
	if scale < 1.0 {
		cfg = cfg.Scaled(scale)
	}
	return configgen.Generate(m, cfg).Files, true
}

// BuildUDM builds the unified device model from the shared concept space.
// The paper's UDM is proprietary; this one is constructed exactly like it
// (attributes with expert annotations, grouped in feature sub-trees) but
// with known ground truth.
func BuildUDM() *UDM {
	return udm.Build(devmodel.Concepts())
}

// ExpertCorrections simulates the expert intervention of §5.1: for every
// corpus whose CLI field the syntax validator flagged, the expert
// reconstructs the correct template (in the paper by judgement and
// trial-and-error on real devices; here from ground truth — the device
// simulator is built from the same truth, so the two agree). Corpora must
// be in manual page order.
func ExpertCorrections(m *DeviceModel, flagged []vdm.InvalidCLI) []Correction {
	var out []Correction
	for _, ic := range flagged {
		if ic.Corpus >= 0 && ic.Corpus < len(m.Commands) {
			out = append(out, Correction{Corpus: ic.Corpus, CLI: m.Commands[ic.Corpus].Template})
		}
	}
	return out
}

// AnnotationCount returns the paper's expert-annotation budget per vendor
// (§7.3: 381 for Huawei, 110 for Nokia); other vendors default to 100.
func AnnotationCount(vendor string) int {
	switch vendor {
	case string(devmodel.Huawei):
		return 381
	case string(devmodel.Nokia):
		return 110
	}
	return 100
}

// GroundTruthAnnotations derives up to limit expert annotations from the
// model's concept realizations: each annotation pairs the VDM parameter
// realizing a concept with that concept's UDM attribute. The selection is
// a deterministic seeded shuffle, standing in for which pairs the paper's
// experts happened to label. Corpora must be in manual page order (corpus
// index == command index).
func GroundTruthAnnotations(m *DeviceModel, limit int, seed uint64) []Annotation {
	cmdIndex := map[string]int{}
	for i, c := range m.Commands {
		cmdIndex[c.ID] = i
	}
	var all []Annotation
	for _, con := range m.Concepts {
		ref, ok := m.Realizes[con.ID]
		if !ok {
			continue
		}
		idx, ok := cmdIndex[ref.CommandID]
		if !ok {
			continue
		}
		all = append(all, Annotation{
			Param:  Parameter{Corpus: idx, Name: ref.Param},
			AttrID: con.ID,
		})
	}
	r := rand.New(rand.NewPCG(seed, 0xa77))
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if limit > 0 && limit < len(all) {
		all = all[:limit]
	}
	return all
}

// NewDevice builds a simulated device from a ground-truth model.
func NewDevice(m *DeviceModel) (*Device, error) { return device.New(m) }

// ServeDevice serves a simulated device over TCP ("127.0.0.1:0" picks an
// ephemeral port).
func ServeDevice(d *Device, addr string) (*DeviceServer, error) { return device.Serve(d, addr) }

// DialDevice opens a CLI session against a served device.
func DialDevice(addr string) (*DeviceClient, error) {
	return device.DialContext(context.Background(), addr)
}

// AssimilationResult bundles the artifacts of one vendor's pipeline run.
// Artifacts may come from the engine's cache and are shared by reference:
// treat them as read-only. Parsed holds the pre-correction corpora exactly
// as the parser produced them; VDM.Corpora carries the expert-corrected
// templates the model was derived from.
type AssimilationResult struct {
	Model        *DeviceModel
	Parsed       *ParseResult
	VDM          *VDM
	DeriveReport *DeriveReport
	// PreCorrection counts the invalid CLIs found before expert correction
	// (the Table 4 "#Invalid CLI Commands" figure).
	PreCorrectionInvalid int
	// CorrectionsApplied counts the expert fixes folded into the rebuild.
	CorrectionsApplied int
	// Empirical and Live are set when Options enabled those stages.
	Empirical *EmpiricalReport
	Live      *LiveReport
	// StagesRun and StagesSkipped record which pipeline stages executed
	// and which were satisfied from the artifact cache.
	StagesRun     []PipelineStage
	StagesSkipped []PipelineStage
	// StageElapsed is the engine's wall time of each executed stage;
	// cache-satisfied stages have no entry. It is the one stage clock:
	// the stage histogram and the run manifest read the same value.
	StageElapsed map[PipelineStage]time.Duration
	// DegradedStages maps each stage that yielded a partial (degraded)
	// artifact — live testing against a device that kept dropping
	// connections — to its machine-readable reason. Live reports are never
	// cached, so a later run tests the device again.
	DegradedStages map[PipelineStage]string
	// PagesHash and ConfigHash are the content hashes of the job's inputs
	// — the same sha256 hashes the artifact cache keys chain from — so
	// callers (the run manifest, the serving daemon) can name exactly
	// what was assimilated.
	PagesHash  string
	ConfigHash string
	// HierarchyKey is the content-hash key of the hierarchy artifact VDM
	// came from: two results with the same key carry the same VDM.
	HierarchyKey string
}

// Degraded reports whether any stage of this vendor's run produced a
// degraded artifact.
func (r *AssimilationResult) Degraded() bool { return len(r.DegradedStages) > 0 }
