package vdm

import (
	"fmt"
	"sort"

	"nassim/internal/artifact"
	"nassim/internal/cgm"
	"nassim/internal/clisyntax"
	"nassim/internal/corpus"
)

// Binary (de)serialization of validated VDMs for the nassim-art/v1
// artifact store. Unlike the JSON path (persist.go), which drops the CGM
// index and rebuilds it by re-parsing every template on load, the binary
// form persists the compiled graphs too — a warm start maps the whole
// model (corpora text, view tree, invalid-CLI records, compiled FSMs)
// straight out of the artifact buffer. Map entries are written in sorted
// key order so encoding is deterministic.

// AppendBinary writes the model to an artifact section.
func (v *VDM) AppendBinary(e *artifact.Enc) {
	e.String(v.Vendor)
	e.String(v.RootView)
	corpus.AppendBinary(e, v.Corpora)

	e.Len(len(v.Views), v.Views == nil)
	names := make([]string, 0, len(v.Views))
	for name := range v.Views {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		info := v.Views[name]
		e.String(name)
		if info == nil {
			e.Bool(false)
			continue
		}
		e.Bool(true)
		e.String(info.Name)
		e.String(info.Parent)
		e.Int(int64(info.EnterCorpus))
		e.Bool(info.Ambiguous)
		e.Len(len(info.RelevantSnippets), info.RelevantSnippets == nil)
		for _, s := range info.RelevantSnippets {
			e.String(s)
		}
	}

	e.Len(len(v.Pairs), v.Pairs == nil)
	for _, p := range v.Pairs {
		e.Int(int64(p.Corpus))
		e.String(p.View)
	}

	e.Len(len(v.InvalidCLIs), v.InvalidCLIs == nil)
	for _, ic := range v.InvalidCLIs {
		e.Int(int64(ic.Corpus))
		e.String(ic.CLI)
		if ic.Err == nil {
			e.Bool(false)
			continue
		}
		e.Bool(true)
		e.String(ic.Err.Template)
		e.Int(int64(ic.Err.Pos))
		e.String(ic.Err.Msg)
		e.Len(len(ic.Err.Suggestions), ic.Err.Suggestions == nil)
		for _, s := range ic.Err.Suggestions {
			e.String(s)
		}
	}

	if v.Index == nil {
		e.Bool(false)
	} else {
		e.Bool(true)
		cgm.AppendIndexBinary(e, v.Index)
	}
}

// DecodeBinary reads a model written by AppendBinary.
func DecodeBinary(d *artifact.Dec) (*VDM, error) {
	v := &VDM{Vendor: d.String(), RootView: d.String()}
	var err error
	if v.Corpora, err = corpus.DecodeBinary(d); err != nil {
		return nil, fmt.Errorf("vdm: %w", err)
	}

	if n, isNil := d.Len(); !isNil {
		v.Views = make(map[string]*ViewInfo, n)
		for i := 0; i < n; i++ {
			name := d.String()
			if !d.Bool() {
				v.Views[name] = nil
				continue
			}
			info := &ViewInfo{
				Name:        d.String(),
				Parent:      d.String(),
				EnterCorpus: int(d.Int()),
				Ambiguous:   d.Bool(),
			}
			if m, snipNil := d.Len(); !snipNil {
				info.RelevantSnippets = make([]string, m)
				for j := range info.RelevantSnippets {
					info.RelevantSnippets[j] = d.String()
				}
			}
			if d.Err() != nil {
				break
			}
			v.Views[name] = info
		}
	}

	if n, isNil := d.Len(); !isNil {
		v.Pairs = make([]Pair, n)
		for i := range v.Pairs {
			v.Pairs[i] = Pair{Corpus: int(d.Int()), View: d.String()}
		}
	}

	if n, isNil := d.Len(); !isNil {
		v.InvalidCLIs = make([]InvalidCLI, n)
		for i := range v.InvalidCLIs {
			ic := InvalidCLI{Corpus: int(d.Int()), CLI: d.String()}
			if d.Bool() {
				se := &clisyntax.SyntaxError{
					Template: d.String(),
					Pos:      int(d.Int()),
					Msg:      d.String(),
				}
				if m, sugNil := d.Len(); !sugNil {
					se.Suggestions = make([]string, m)
					for j := range se.Suggestions {
						se.Suggestions[j] = d.String()
					}
				}
				ic.Err = se
			}
			v.InvalidCLIs[i] = ic
		}
	}

	if d.Bool() {
		ix, err := cgm.DecodeIndexBinary(d)
		if err != nil {
			return nil, fmt.Errorf("vdm: %w", err)
		}
		v.Index = ix
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("vdm: binary decode: %w", err)
	}
	if err := v.check(); err != nil {
		return nil, err
	}
	return v, nil
}
