// Package observe holds the per-access observer handle: the access's
// trace span and its latency-attribution ledger, carried as one value
// from the core that issues the access, through the host-memory
// descriptor, to the device that serves it. The two layers stay
// independent — each records only its own view, and either may be off —
// but an edge they both see is stamped once.
package observe

import (
	"repro/internal/attrib"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Access observes one access. The zero Access observes nothing: its
// span is the disabled zero Span and its ledger handle is the zero
// handle, so every stamp is a no-op.
type Access struct {
	Span   trace.Span    // lifecycle span; zero when tracing is off
	Ledger attrib.Access // phase ledger handle; zero when attribution is off
}

// Mark stamps an edge both layers see at the same instant: the span
// point named edge, and the ledger mark charging the interval since
// its previous mark to phase.
func (o Access) Mark(at sim.Time, edge string, phase attrib.Phase) {
	o.Span.Point(at, edge)
	o.Ledger.To(phase, at)
}
