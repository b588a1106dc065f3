package engine

import (
	"context"

	"swfpga/internal/align"
	"swfpga/internal/host"
)

// Engine is the negotiated scan contract: every registered backend
// serves the full method set, returning ErrUnsupported for operations
// outside its Capabilities. The scan methods are exactly the
// linear.Scanner / linear.DivergenceScanner / linear.AffineScanner
// contracts, so an Engine drops into the three-phase pipeline
// (linear.Pipeline, through its wrappers linear.Local,
// linear.LocalRestricted, linear.LocalAffineRestricted and
// linear.NearBest) and the database search unchanged.
type Engine interface {
	// Name is the registered backend name.
	Name() string
	// Capabilities declares what the backend can do.
	Capabilities() Capabilities

	// BestLocal is the forward scan: best local score and end cell.
	BestLocal(ctx context.Context, s, t []byte, sc align.LinearScoring) (score, endI, endJ int, err error)
	// BestAnchored is the reverse-phase scan over reversed prefixes.
	BestAnchored(ctx context.Context, s, t []byte, sc align.LinearScoring) (score, endI, endJ int, err error)
	// BestAnchoredDivergence extends BestAnchored with the Z-align
	// divergence band (Capabilities.Divergence).
	BestAnchoredDivergence(ctx context.Context, s, t []byte, sc align.LinearScoring) (score, endI, endJ, infDiv, supDiv int, err error)
	// BestAffineLocal is the Gotoh forward scan (Capabilities.Affine).
	BestAffineLocal(ctx context.Context, s, t []byte, sc align.AffineScoring) (score, endI, endJ int, err error)
	// BestAffineAnchoredDivergence is the anchored Gotoh scan with
	// divergence tracking (Capabilities.Affine).
	BestAffineAnchoredDivergence(ctx context.Context, s, t []byte, sc align.AffineScoring) (score, endI, endJ, infDiv, supDiv int, err error)
}

// Unsupported is the embeddable default for backends that serve only a
// subset of the Engine contract: every extended operation reports
// ErrUnsupported.
type Unsupported struct{}

// BestAnchoredDivergence reports ErrUnsupported.
func (Unsupported) BestAnchoredDivergence(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, int, int, error) {
	return 0, 0, 0, 0, 0, ErrUnsupported
}

// BestAffineLocal reports ErrUnsupported.
func (Unsupported) BestAffineLocal(ctx context.Context, s, t []byte, sc align.AffineScoring) (int, int, int, error) {
	return 0, 0, 0, ErrUnsupported
}

// BestAffineAnchoredDivergence reports ErrUnsupported.
func (Unsupported) BestAffineAnchoredDivergence(ctx context.Context, s, t []byte, sc align.AffineScoring) (int, int, int, int, int, error) {
	return 0, 0, 0, 0, 0, ErrUnsupported
}

// BatchResult is one record's outcome in a batched scan.
type BatchResult struct {
	// Score is the record's best local score (0 if none positive).
	Score int
	// EndI, EndJ are the end coordinates of the best score.
	EndI, EndJ int
}

// Batcher is the record-batching fast path (Capabilities.Batch): one
// query against many records with the per-call setup cost amortized —
// the SWAPHI-style batching the deployed board uses for database
// search. Engines without the capability simply don't implement it;
// negotiate with BatcherFor.
type Batcher interface {
	BatchScan(ctx context.Context, query []byte, records [][]byte, sc align.LinearScoring) ([]BatchResult, error)
}

// BatcherFor negotiates the batching fast path: the engine itself when
// it advertises and implements Batch, nil otherwise.
func BatcherFor(e Engine) Batcher {
	if e == nil || !e.Capabilities().Batch {
		return nil
	}
	b, _ := e.(Batcher)
	return b
}

// FaultReport re-exports the cluster fault report so engine consumers
// need not import internal/host.
type FaultReport = host.FaultReport

// Faulter exposes the fault-tolerance activity of a Faulty engine.
type Faulter interface {
	// LastFaults is the report of the most recent scan.
	LastFaults() FaultReport
	// TotalFaults accumulates across every scan the engine ran.
	TotalFaults() FaultReport
}

// FaulterFor negotiates fault reporting: the engine itself when it
// advertises and implements Faulty, nil otherwise.
func FaulterFor(e Engine) Faulter {
	if e == nil || !e.Capabilities().Faulty {
		return nil
	}
	f, _ := e.(Faulter)
	return f
}

// BoardMetrics re-exports the per-board modeled-cost counters so engine
// consumers need not import internal/host.
type BoardMetrics = host.Metrics

// Introspector exposes the modeled hardware counters of each board
// behind an engine — one entry per simulated device, in board order.
// Software backends have no boards and don't implement it.
type Introspector interface {
	BoardMetrics() []BoardMetrics
}

// IntrospectorFor negotiates board introspection: the engine itself
// when it exposes board metrics, nil otherwise.
func IntrospectorFor(e Engine) Introspector {
	i, _ := e.(Introspector)
	return i
}
