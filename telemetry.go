package noftl

// The public telemetry facade: request spans decomposing every commit's
// latency by layer, a unified metrics registry sampled on simulated
// time, a flight recorder for the slowest transactions and deadline
// misses, and exporters — Chrome trace-event JSON (load the file in
// Perfetto) and a machine-readable metrics dump. Attach the pipeline
// with WithTelemetry; the system wires the registry over every layer it
// assembled and benchmark runners deliver each counted transaction's
// span to it.

import (
	"io"

	"noftl/internal/ioreq"
	"noftl/internal/system"
	"noftl/internal/telemetry"
)

type (
	// Telemetry is the cross-layer telemetry pipeline of one system:
	// metrics registry, sim-time sampler, flight recorder, exporters
	// (System.Tel).
	Telemetry = telemetry.Telemetry
	// TelemetryConfig tunes the pipeline (sample period, slowest-K
	// retention, deadline-miss ring, span retention for trace export).
	TelemetryConfig = telemetry.Config
	// MetricsRegistry is the unified registry of named cross-layer
	// counters and gauges ("layer.metric" naming).
	MetricsRegistry = telemetry.Registry
	// FlightRecorder retains full span breakdowns for the slowest-K
	// requests and all deadline misses per tenant tag.
	FlightRecorder = telemetry.FlightRecorder
	// MetricSeries is the sampler's output: column names plus one row of
	// values per sample instant.
	MetricSeries = telemetry.Series
	// MetricSample is one sampler row (sim-time instant plus one value
	// per registered metric).
	MetricSample = telemetry.Sample
	// SpanDump is a span's machine-readable breakdown (per-stage
	// durations, deadline verdict, flash-command count).
	SpanDump = telemetry.SpanDump
	// Span is a request span: per-layer stage timings of one
	// transaction, riding the request descriptor from the terminal down
	// to the die queues.
	Span = ioreq.Span
	// SpanStage names one layer stage of a span (engine, buffer pool,
	// WAL, volume, scheduler queue, die service).
	SpanStage = ioreq.Stage
)

// WithTelemetry attaches the cross-layer telemetry pipeline to a
// facade-built system: a metrics registry over every layer's counters
// with a periodic sim-time sampler, plus a flight recorder for request
// spans. RunScenario, and so every experiment, delivers transaction
// spans automatically when the system carries a pipeline.
func WithTelemetry(cfg TelemetryConfig) SystemOption { return system.WithTelemetry(cfg) }

// WriteTraceEvents exports a Chrome trace-event JSON file from a
// command log and the retained transaction spans; load it in Perfetto
// (ui.perfetto.dev) to see per-die command timelines and per-layer
// transaction stage breakdowns. Either argument may be empty/nil.
func WriteTraceEvents(w io.Writer, log *CmdLog, spans []*Span) error {
	var events []SchedEvent
	if log != nil {
		events = log.Events
	}
	return telemetry.WriteTrace(w, events, spans)
}
