package pipeline

import (
	"context"
	"crypto/sha256"
	"testing"

	"nassim/internal/artifact"
	"nassim/internal/devmodel"
)

// reseal rewrites the header hash of a document-shaped input over its
// bytes [40:]. Open rejects any changed byte of a sealed document with
// ErrChecksum, so without resealing no mutated input would reach a
// section table, a varint, a pool offset or a stage decoder. Inputs too
// short for a header or without the magic are returned as they are.
func reseal(data []byte) []byte {
	const hdr = len(artifact.Magic) + sha256.Size
	if len(data) < hdr || string(data[:len(artifact.Magic)]) != artifact.Magic {
		return data
	}
	out := append([]byte(nil), data...)
	sum := sha256.Sum256(out[hdr:])
	copy(out[len(artifact.Magic):], sum[:])
	return out
}

// FuzzArtifactCodecs drives the four binary stage codecs with mutations
// of real encoded artifacts (the corpus pool, the VDM with its compiled
// CGM index, the completeness and derivation reports, an empirical report
// with a failure, and three of a job's mappings ride in the seeds). Each input
// is decoded twice: as it is, which probes the container's checks, and
// resealed, which hands the mutated bytes to the stage decoders behind
// them. The contract: every input either decodes or is rejected with an
// error — never a panic — and anything that does decode is a well-formed
// artifact: it re-encodes, and a decoded empirical report or mapping list
// holds only indices inside the job's corpora, parameters and attributes.
func FuzzArtifactCodecs(f *testing.F) {
	pa, da := coldArtifacts(f, devmodel.H3C)
	pb, err := parseBinaryCodec{}.Encode(pa)
	if err != nil {
		f.Fatal(err)
	}
	db, err := deriveBinaryCodec{}.Encode(da)
	if err != nil {
		f.Fatal(err)
	}
	job := fullJob(f, devmodel.H3C, 0.02)
	eng, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	res, err := eng.Run(context.Background(), []Job{job})
	if err != nil {
		f.Fatal(err)
	}
	empC, mapC := jobCodecs(job, res[0])
	eb, err := empC.Encode(res[0].Empirical)
	if err != nil {
		f.Fatal(err)
	}
	// Three parameters keep the map seed at a few hundred bytes, so most
	// mutations land on its framing rather than on score bits.
	mapC.params = mapC.params[:3]
	mb, err := mapC.Encode(res[0].Mapping[:3])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pb)
	f.Add(db)
	f.Add([]byte{})
	f.Add([]byte("NASART1\n"))
	f.Add(eb)
	f.Add(mb)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			if a, err := (parseBinaryCodec{}).Decode(in); err == nil {
				if _, err := (parseJSONCodec{}).Encode(a); err != nil {
					t.Fatalf("decoded parse artifact fails JSON reference encode: %v", err)
				}
				if _, err := (parseBinaryCodec{}).Encode(a); err != nil {
					t.Fatalf("decoded parse artifact fails binary re-encode: %v", err)
				}
			}
			if a, err := (deriveBinaryCodec{}).Decode(in); err == nil {
				if _, err := (deriveJSONCodec{}).Encode(a); err != nil {
					t.Fatalf("decoded derive artifact fails JSON reference encode: %v", err)
				}
				if _, err := (deriveBinaryCodec{}).Encode(a); err != nil {
					t.Fatalf("decoded derive artifact fails binary re-encode: %v", err)
				}
			}
			if rep, err := empC.Decode(in); err == nil {
				for c := range rep.UsedCorpora {
					if c < 0 || c >= empC.corpora {
						t.Fatalf("decoded empirical report uses corpus %d of %d", c, empC.corpora)
					}
				}
				if _, err := empC.Encode(rep); err != nil {
					t.Fatalf("decoded empirical report fails re-encode: %v", err)
				}
			}
			if ms, err := mapC.Decode(in); err == nil {
				if len(ms) != len(mapC.params) {
					t.Fatalf("decoded %d mappings for %d parameters", len(ms), len(mapC.params))
				}
				for _, m := range ms {
					if len(m.Recommendations) > mapC.topK {
						t.Fatalf("decoded %d recommendations at top-%d", len(m.Recommendations), mapC.topK)
					}
					for _, r := range m.Recommendations {
						if r.AttrIndex < 0 || r.AttrIndex >= len(mapC.attrs) || r.Attr.ID != mapC.attrs[r.AttrIndex].ID {
							t.Fatalf("decoded recommendation %d (%s) not linked to the mapper's attributes", r.AttrIndex, r.Attr.ID)
						}
					}
				}
				if _, err := mapC.Encode(ms); err != nil {
					t.Fatalf("decoded mappings fail re-encode: %v", err)
				}
			}
		}
	})
}
