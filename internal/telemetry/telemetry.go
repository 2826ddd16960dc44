// Package telemetry is the stack's observability layer: a per-simulator
// metrics registry (counters, gauges, fixed-bucket exponential
// histograms) and a structured event trace, both deterministic by
// construction. Nothing here reads the wall clock or global randomness —
// every event is stamped with the virtual time its caller supplies, and
// every exporter emits metrics in stable sorted order, so two runs with
// the same seed produce byte-identical output. The package depends only
// on the standard library. The rest of the stack observes through one
// seam, a node's Tap (tap.go): each pipeline stage hands it one record,
// and the stage table turns that record into a counter increment, an
// event and a span. A nil Tap keeps the uninstrumented hot path at one
// predictable branch and zero allocations.
//
// There are deliberately no package-level registries: a Registry belongs
// to one run (typically one netsim.Simulator), which is what keeps
// ndnlint's determinism contract intact and lets tests run in parallel
// without shared state.
package telemetry

import (
	"strings"

	"ndnprivacy/internal/telemetry/span"
)

// Provider is implemented by executors that carry telemetry for the
// nodes running on them. netsim.Simulator implements it; every
// forwarder and link built on it records through a Tap built from it
// (NewTap). Hooks is the plain implementation.
type Provider interface {
	// Metrics returns the run's registry, or nil when disabled.
	Metrics() *Registry
	// TraceSink returns the run's event sink, or nil when disabled.
	TraceSink() Sink
	// Spans returns the run's span tracer, or nil when disabled.
	Spans() *span.Tracer
}

// ID renders a metric identifier from a family name and label key/value
// pairs, in Prometheus sample syntax: ID("fwd_cs_hits_total", "node",
// "R") is `fwd_cs_hits_total{node="R"}`. Labels render in argument
// order; call sites must use a fixed order so identical metrics map to
// identical identifiers. An odd trailing key is ignored.
func ID(name string, labels ...string) string {
	if len(labels) < 2 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies Prometheus label-value escaping.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// splitID separates a rendered identifier into its family name and the
// label body (the text inside the braces, empty when unlabeled).
func splitID(id string) (family, labels string) {
	open := strings.IndexByte(id, '{')
	if open < 0 || !strings.HasSuffix(id, "}") {
		return id, ""
	}
	return id[:open], id[open+1 : len(id)-1]
}
