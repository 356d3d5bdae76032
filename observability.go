package nassim

import (
	"io"
	"log/slog"

	"nassim/internal/obsreport"
	"nassim/internal/telemetry"
)

// Observability surface: the pipeline's structured logging, metrics
// registry, and span tracing live in internal/telemetry; these wrappers are
// the supported public idiom for programs embedding the library (the
// example programs and both CLIs use them). See README.md "Observability".

// LogConfig configures the process-wide structured logger.
type LogConfig = telemetry.LogConfig

// TelemetryServer is a running telemetry HTTP server (/metrics,
// /debug/vars, /debug/traces, /debug/pprof/).
type TelemetryServer = telemetry.Server

// SpanRecord is one finished span from the tracing ring buffer.
type SpanRecord = telemetry.SpanRecord

// InitLogging installs the process-wide root log handler (text or JSON) and
// returns the root logger. Before it is called, all pipeline logging is
// discarded at near-zero cost.
func InitLogging(cfg LogConfig) *slog.Logger { return telemetry.InitLogging(cfg) }

// Logger returns the cached child logger for a pipeline component; it picks
// up InitLogging re-configuration at log time.
func Logger(component string) *slog.Logger { return telemetry.Logger(component) }

// ParseLogLevel converts "debug"/"info"/"warn"/"error" to a slog.Level,
// defaulting to info.
func ParseLogLevel(name string) slog.Level { return telemetry.ParseLevel(name) }

// Fatal logs at error level and exits with status 1 — the supported
// replacement for log.Fatal in programs built on this library. It
// initializes stderr logging first if InitLogging was never called.
func Fatal(l *slog.Logger, msg string, args ...any) { telemetry.Fatal(l, msg, args...) }

// ServeTelemetry starts the operational HTTP endpoints on addr (":0" picks
// a free port): Prometheus /metrics, expvar /debug/vars, span dump
// /debug/traces, and the standard /debug/pprof/ handlers.
func ServeTelemetry(addr string) (*TelemetryServer, error) { return telemetry.Serve(addr) }

// EnableTracing installs a span recorder with the given ring-buffer
// capacity; pipeline stages start recording spans immediately.
func EnableTracing(capacity int) { telemetry.EnableTracing(capacity) }

// DisableTracing uninstalls the span recorder; Span calls return to no-ops.
func DisableTracing() { telemetry.DisableTracing() }

// TraceSnapshot returns the recorded spans, oldest first, or nil when
// tracing is disabled.
func TraceSnapshot() []SpanRecord {
	rec := telemetry.ActiveRecorder()
	if rec == nil {
		return nil
	}
	return rec.Snapshot()
}

// RunReport is the run observatory's per-run manifest (schema
// "nassim-run-manifest/v1"): a content-addressed record of what one
// Assimilate run did — input hashes, per-stage outcomes, cache hit/miss,
// worker utilization, metrics delta — with every duration and timestamp
// quarantined in its Timing block so repeated warm runs over the same
// inputs produce byte-identical manifests outside it. Enable with
// Options.Report; /debug/lastrun serves the most recent one.
type RunReport = obsreport.Manifest

// RunReportSchema is the manifest document's schema identifier.
const RunReportSchema = obsreport.ManifestSchema

// LoadRunReport reads a manifest written by a previous run back from disk
// and validates its schema.
func LoadRunReport(path string) (*RunReport, error) { return obsreport.Load(path) }

// ExportChromeTrace writes the active span recorder's ring buffer in the
// Chrome trace-event format (loadable in chrome://tracing and Perfetto).
// It errors when tracing is not enabled.
func ExportChromeTrace(w io.Writer) error { return obsreport.ExportActiveTrace(w) }

// WriteChromeTrace renders an arbitrary span slice (e.g. a saved
// TraceSnapshot) in the Chrome trace-event format.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	return obsreport.WriteChromeTrace(w, spans)
}

func init() {
	reg := telemetry.Default()
	reg.SetHelp("nassim_mapper_finetune_runs_total", "Fine-tuning runs completed, by model kind.")
	reg.SetHelp("nassim_mapper_finetune_epochs_total", "Fine-tuning epochs trained, by model kind.")
	reg.SetHelp("nassim_mapper_finetune_seconds", "Wall time of one fine-tuning run.")
}
