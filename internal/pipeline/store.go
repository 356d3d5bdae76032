package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sync"
)

// MemStore is the in-memory artifact store the engine consults before
// running a stage. Keys are content hashes chained along the stage graph,
// so any change in a stage's inputs — pages, corrections, config files,
// the mapper — produces a new key and forces a re-run, while unchanged
// inputs hit the cache and the stage is skipped. Values are stage
// artifacts shared by reference; callers must treat them as read-only.
// It is safe for concurrent use by the engine's worker pool and can be
// shared across engine runs (and across engines) to make warm re-runs
// skip unchanged stages.
type MemStore struct {
	mu      sync.RWMutex
	entries map[string]any
}

// NewMemStore returns an empty in-memory artifact store.
func NewMemStore() *MemStore {
	return &MemStore{entries: map[string]any{}}
}

// Get returns the artifact stored under key.
func (s *MemStore) Get(key string) (any, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.entries[key]
	return v, ok
}

// Put stores an artifact under key.
func (s *MemStore) Put(key string, value any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[key] = value
}

// Delete removes one artifact, reporting whether it was present. It backs
// Engine.Invalidate: deleting a stage's key forces that stage to re-run on
// the next job with the same inputs.
func (s *MemStore) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	delete(s.entries, key)
	return ok
}

// Len returns the number of cached artifacts.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// DiskStore persists serialized stage artifacts under a directory, one
// file per key. It backs the MemStore for the four stages with a codec
// (parse, hierarchy, empirical, map_to_udm) so a fresh process can
// warm-start from a previous run's artifacts. syntax_cgm has no codec and
// stays in memory (see Config.CacheDir); it is a parse check, so a restart
// compiles no CGM. live_test is never stored.
type DiskStore struct {
	dir string
}

// NewDiskStore creates (if needed) and opens an on-disk artifact cache.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: cache dir: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// path names an artifact file <stage>-<key>.art. The key hashes the
// stage's version, so a bumped stage never reads (or clobbers) a file an
// older version wrote: the old name is never asked for and the stage
// re-runs. Nothing deletes the orphaned file.
func (d *DiskStore) path(stage Stage, key string) string {
	return filepath.Join(d.dir, string(stage)+"-"+key+".art")
}

// GetBytes loads the serialized artifact stored under a stage and key.
func (d *DiskStore) GetBytes(stage Stage, key string) ([]byte, bool) {
	data, err := os.ReadFile(d.path(stage, key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// PutBytes stores a serialized artifact. Writes go through a temp file +
// rename so concurrent workers never observe a torn artifact.
func (d *DiskStore) PutBytes(stage Stage, key string, data []byte) error {
	tmp, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, d.path(stage, key))
}

// framedHash is a sha256 over a string sequence in which each string is
// preceded by its length, so concatenation ambiguity cannot alias two
// different sequences. Every key and key part is hashed through it.
type framedHash struct {
	h     hash.Hash
	frame [8]byte
}

func newFramedHash() *framedHash { return &framedHash{h: sha256.New()} }

// write frames s and hashes it.
func (f *framedHash) write(s string) {
	binary.BigEndian.PutUint64(f.frame[:], uint64(len(s)))
	f.h.Write(f.frame[:])
	f.h.Write([]byte(s))
}

// sum returns the hex digest of everything written.
func (f *framedHash) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

// stageVersions holds the one version of each keyed stage. Key hashes it
// in place of the stage name, so bumping a version re-keys that stage and,
// through key chaining, every stage downstream; the mirrored stages'
// codecs write it as the artifact's schema tag and reject any other. Bump
// a stage's version whenever what it computes changes;
// TestStageVersionTripwire fails when a stage's output moves under an
// unchanged version. live_test has no version because it is never keyed.
var stageVersions = map[Stage]string{
	StageParse:             "parse/v1",
	StageSyntaxValidate:    "syntax_cgm/v1",
	StageDeriveHierarchy:   "derive/v2",
	StageEmpiricalValidate: "empirical/v1",
	StageMapToUDM:          "map/v1",
}

// Key derives a stage's cache key by hashing the stage's version, the keys
// of its upstream artifacts, and any extra inputs.
func Key(stage Stage, parts ...string) string {
	f := newFramedHash()
	f.write(stageVersions[stage])
	for _, p := range parts {
		f.write(p)
	}
	return f.sum()
}

// HashStrings content-hashes an ordered string sequence (page bodies,
// config lines, parameter names) into one key part.
func HashStrings(parts ...string) string {
	f := newFramedHash()
	for _, p := range parts {
		f.write(p)
	}
	return f.sum()
}
