// Package telemetry is the observability substrate of the assimilation
// pipeline: structured logging (log/slog with per-component child loggers),
// a concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) published through expvar and exportable in the Prometheus
// text format, and lightweight span tracing with an in-memory ring-buffer
// recorder. Everything is stdlib-only and cheap enough to stay compiled
// into the hot path: metrics are lock-free atomics once a handle is held,
// logging defaults to a discard handler, and tracing is disabled unless a
// recorder is installed.
//
// The pipeline packages (parser, clisyntax, cgm, hierarchy, empirical,
// mapper, controller, device) register their metrics against the Default
// registry under the "nassim_" prefix; cmd/nassim's --metrics-addr flag and
// cmd/evalbench's stage table expose them operationally. See README.md's
// "Observability" section for the metric name table.
package telemetry

// Component names used for the per-component child loggers. Free-form
// strings are accepted too; these constants just keep the pipeline
// consistent.
const (
	ComponentParser     = "parser"
	ComponentHierarchy  = "hierarchy"
	ComponentEmpirical  = "empirical"
	ComponentMapper     = "mapper"
	ComponentController = "controller"
)
