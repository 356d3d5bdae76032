package obsreport

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"nassim/internal/pipeline"
)

// FlightRecorder brackets actual stage executions with pprof captures: a
// CPU profile spanning the stage and a heap snapshot at stage exit, one
// pair of files per (vendor, stage) under Dir. Attach it to a pipeline via
// Config.StageHook (or nassim.Options.StageHook); cache hits never fire
// the hook, so warm stages cost nothing.
//
// Go allows one CPU profile per process, so captures are serialized by a
// recorder-wide mutex: with stage-level profiling on, overlapping stages
// (vendor workers > 1) queue on each other. Run with workers=1 for faithful
// per-stage attribution — the nassim CLI's -profile-stages flag does this
// automatically.
type FlightRecorder struct {
	// Dir receives the capture files (created on first use).
	Dir string

	mu       sync.Mutex
	captures []string
	errs     []error
}

// NewFlightRecorder captures CPU and heap profiles per stage into dir.
func NewFlightRecorder(dir string) *FlightRecorder {
	return &FlightRecorder{Dir: dir}
}

// StageHook adapts the recorder to pipeline.Config.StageHook.
func (fr *FlightRecorder) StageHook() func(vendor string, stage pipeline.Stage) func() {
	return func(vendor string, stage pipeline.Stage) func() {
		return fr.begin(vendor, string(stage))
	}
}

// begin starts the capture bracket for one stage execution and returns the
// closer. Errors are collected, not returned: a failed profile must not
// fail the pipeline run it observes.
func (fr *FlightRecorder) begin(vendor, stage string) func() {
	fr.mu.Lock() // held across the stage: CPU profiling is process-global
	if err := os.MkdirAll(fr.Dir, 0o755); err != nil {
		fr.errs = append(fr.errs, err)
		fr.mu.Unlock()
		return nil
	}
	base := sanitize(vendor) + "-" + sanitize(stage)
	var cpuFile *os.File
	f, err := os.Create(filepath.Join(fr.Dir, "cpu-"+base+".pprof"))
	if err != nil {
		fr.errs = append(fr.errs, err)
	} else if err := pprof.StartCPUProfile(f); err != nil {
		fr.errs = append(fr.errs, fmt.Errorf("cpu profile %s/%s: %w", vendor, stage, err))
		f.Close()
	} else {
		cpuFile = f
		fr.captures = append(fr.captures, f.Name())
	}
	return func() {
		defer fr.mu.Unlock()
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		path := filepath.Join(fr.Dir, "heap-"+base+".pprof")
		f, err := os.Create(path)
		if err != nil {
			fr.errs = append(fr.errs, err)
			return
		}
		runtime.GC() // snapshot live objects, not garbage
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			fr.errs = append(fr.errs, fmt.Errorf("heap profile %s/%s: %w", vendor, stage, err))
		} else {
			fr.captures = append(fr.captures, path)
		}
		f.Close()
	}
}

// Captures lists the profile files written so far.
func (fr *FlightRecorder) Captures() []string {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return append([]string(nil), fr.captures...)
}

// Err joins any capture failures (nil when every capture succeeded).
func (fr *FlightRecorder) Err() error {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if len(fr.errs) == 0 {
		return nil
	}
	return fmt.Errorf("obsreport: %d capture failure(s), first: %w", len(fr.errs), fr.errs[0])
}

// sanitize makes a vendor/stage name safe as a file-name fragment.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
