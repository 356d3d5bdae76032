package vdm

import (
	"encoding/json"
	"fmt"
	"strconv"

	"nassim/internal/cgm"
	"nassim/internal/corpus"
)

// persisted is the on-disk form of a validated VDM. The CGM index is not
// serialized — it is a pure function of the corpora and is rebuilt on load
// (construction is the cheap part; deriving the hierarchy was the work
// worth saving).
type persisted struct {
	Vendor      string
	RootView    string
	Corpora     []json.RawMessage // corpus.Corpus, kept raw to preserve field order
	Views       map[string]*ViewInfo
	Pairs       []Pair
	InvalidCLIs []InvalidCLI
}

// Marshal serializes a validated VDM (including the derived hierarchy) to
// JSON, so an assimilation run's output can be stored and reloaded without
// re-deriving.
func (v *VDM) Marshal() ([]byte, error) { return v.MarshalIndent("") }

// MarshalIndent is Marshal for a document embedded in a larger indented
// JSON document: every line after the first begins with prefix, so the
// bytes are the ones json.Indent would give the document at that depth.
func (v *VDM) MarshalIndent(prefix string) ([]byte, error) {
	p := persisted{
		Vendor:      v.Vendor,
		RootView:    v.RootView,
		Views:       v.Views,
		Pairs:       v.Pairs,
		InvalidCLIs: v.InvalidCLIs,
	}
	for i := range v.Corpora {
		raw, err := json.Marshal(&v.Corpora[i])
		if err != nil {
			return nil, fmt.Errorf("vdm: corpus %d: %w", i, err)
		}
		p.Corpora = append(p.Corpora, raw)
	}
	return json.MarshalIndent(&p, prefix, "  ")
}

// Unmarshal reloads a persisted VDM and rebuilds its template index.
// Templates that fail syntax validation are re-recorded in InvalidCLIs
// exactly as a fresh derivation would record them.
func Unmarshal(data []byte, typeOf cgm.TypeResolver) (*VDM, error) {
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("vdm: decoding: %w", err)
	}
	v := &VDM{
		Vendor:   p.Vendor,
		RootView: p.RootView,
		Views:    p.Views,
		Pairs:    p.Pairs,
		Index:    cgm.NewIndex(),
	}
	if v.Views == nil {
		v.Views = map[string]*ViewInfo{}
	}
	for i, raw := range p.Corpora {
		var c corpus.Corpus
		if err := json.Unmarshal(raw, &c); err != nil {
			return nil, fmt.Errorf("vdm: corpus %d: %w", i, err)
		}
		v.Corpora = append(v.Corpora, c)
		tmpl := v.Corpora[i].PrimaryCLI()
		if tmpl == "" {
			continue
		}
		if err := v.Index.Add(CorpusID(i), tmpl, typeOf); err != nil {
			// Keep the persisted record if present; otherwise re-derive it.
			found := false
			for _, ic := range p.InvalidCLIs {
				if ic.Corpus == i {
					found = true
					break
				}
			}
			if !found {
				p.InvalidCLIs = append(p.InvalidCLIs, InvalidCLI{Corpus: i, CLI: tmpl})
			}
		}
	}
	v.InvalidCLIs = p.InvalidCLIs
	if err := v.check(); err != nil {
		return nil, err
	}
	return v, nil
}

// check rejects a loaded model that a reader would index out of bounds: a
// nil view, an EnterCorpus outside [-1, len(Corpora)), or a pair,
// invalid-CLI record or template-index ID naming a corpus outside
// [0, len(Corpora)). DecodeBinary and Unmarshal run it last, so a forged
// artifact or document is a decode error, never a panic in a later stage.
func (v *VDM) check() error {
	n := len(v.Corpora)
	for name, info := range v.Views {
		if info == nil {
			return fmt.Errorf("vdm: view %q has no record", name)
		}
		if info.EnterCorpus < -1 || info.EnterCorpus >= n {
			return fmt.Errorf("vdm: view %q enter corpus %d out of range [-1,%d)", name, info.EnterCorpus, n)
		}
	}
	for _, p := range v.Pairs {
		if p.Corpus < 0 || p.Corpus >= n {
			return fmt.Errorf("vdm: pair corpus %d out of range [0,%d)", p.Corpus, n)
		}
	}
	for _, ic := range v.InvalidCLIs {
		if ic.Corpus < 0 || ic.Corpus >= n {
			return fmt.Errorf("vdm: invalid-CLI corpus %d out of range [0,%d)", ic.Corpus, n)
		}
	}
	if v.Index != nil {
		// Atoi, not ParseCorpusID: this runs on every warm load, and
		// ParseCorpusID's Sscanf costs about 65 times more per ID.
		for _, id := range v.Index.IDs() {
			if i, err := strconv.Atoi(id); err != nil || i < 0 || i >= n {
				return fmt.Errorf("vdm: template id %q out of range [0,%d)", id, n)
			}
		}
	}
	return nil
}
