package linear

import (
	"context"

	"swfpga/internal/align"
)

// Phases describes where each phase of the three-phase local alignment
// ran and what it found; it is reported so the host/accelerator split
// can be inspected (and so the FPGA-backed pipeline in internal/host can
// substitute the accelerator for phases 1 and 2).
type Phases struct {
	// Score is the best local alignment score (phase 1 output).
	Score int
	// EndI, EndJ are the 1-based end coordinates found by phase 1 — the
	// exact outputs of the paper's systolic array.
	EndI, EndJ int
	// StartI, StartJ are the 1-based coordinates one before the start of
	// the alignment, found by phase 2 over the reversed prefixes.
	StartI, StartJ int
	// Cells counts the logical matrix cells of phases 1 and 2,
	// m·n + EndI·EndJ; a distributed scan's chunk overlap is not in it
	// (see host.Cluster.TotalCells).
	Cells uint64
}

// Scanner is the score+coordinates engine used for the two scan phases.
// Every method takes the caller's context: engines that support
// cancellation (the simulated accelerator board, the cluster) honor it
// mid-scan, and plain software engines check it at entry — there is no
// separate ctx-less interface anymore. The software implementation is
// ScanSoftware; internal/engine provides the accelerator-backed ones.
type Scanner interface {
	// BestLocal returns the best local score and its 1-based end
	// coordinates over the similarity matrix of s (query) and t
	// (database). Errors are device conditions (e.g. score-register
	// saturation on an accelerator) or context cancellation; the
	// software scanner fails only on a cancelled context.
	BestLocal(ctx context.Context, s, t []byte, sc align.LinearScoring) (score, endI, endJ int, err error)
	// BestAnchored returns the best score and 1-based end coordinates of
	// alignments anchored at (0,0) (used for the reverse phase).
	BestAnchored(ctx context.Context, s, t []byte, sc align.LinearScoring) (score, endI, endJ int, err error)
}

// DivergenceScanner extends Scanner with the divergence-tracking
// reverse scan of the Z-align pipeline (paper sec. 2.4, reference [3]):
// alongside the anchored best score and coordinates it reports the
// inferior/superior divergences of one optimal path, which bound the
// band the restricted-memory retrieval needs.
type DivergenceScanner interface {
	Scanner
	// BestAnchoredDivergence returns the anchored best plus the path's
	// divergence extrema.
	BestAnchoredDivergence(ctx context.Context, s, t []byte, sc align.LinearScoring) (score, endI, endJ, infDiv, supDiv int, err error)
}

// AffineScanner is the affine-gap counterpart of DivergenceScanner: the
// two scan phases of the affine restricted-memory pipeline.
type AffineScanner interface {
	// BestAffineLocal returns the best Gotoh local score and its end
	// coordinates.
	BestAffineLocal(ctx context.Context, s, t []byte, sc align.AffineScoring) (score, endI, endJ int, err error)
	// BestAffineAnchoredDivergence returns the anchored affine best with
	// the optimal path's divergence extrema.
	BestAffineAnchoredDivergence(ctx context.Context, s, t []byte, sc align.AffineScoring) (score, endI, endJ, infDiv, supDiv int, err error)
}

// ScanSoftware is the pure-software Scanner: the optimized linear-memory
// scans of internal/align. Context is checked once at entry — a
// software scan runs to completion once started.
type ScanSoftware struct{}

// BestLocal implements Scanner.
func (ScanSoftware) BestLocal(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	score, i, j := align.LocalScore(s, t, sc)
	return score, i, j, nil
}

// BestAnchored implements Scanner.
func (ScanSoftware) BestAnchored(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	score, i, j := align.AnchoredBest(s, t, sc)
	return score, i, j, nil
}

// BestAnchoredDivergence implements DivergenceScanner.
func (ScanSoftware) BestAnchoredDivergence(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, int, int, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, 0, 0, err
	}
	score, i, j, inf, sup := align.AnchoredBestDivergence(s, t, sc)
	return score, i, j, inf, sup, nil
}

// BestAffineLocal implements AffineScanner.
func (ScanSoftware) BestAffineLocal(ctx context.Context, s, t []byte, sc align.AffineScoring) (int, int, int, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	score, i, j := align.AffineLocalScore(s, t, sc)
	return score, i, j, nil
}

// BestAffineAnchoredDivergence implements AffineScanner.
func (ScanSoftware) BestAffineAnchoredDivergence(ctx context.Context, s, t []byte, sc align.AffineScoring) (int, int, int, int, int, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, 0, 0, err
	}
	score, i, j, inf, sup := align.AffineAnchoredBestDivergence(s, t, sc)
	return score, i, j, inf, sup, nil
}

// Local computes the best local alignment of s and t in linear memory
// using the three-phase method of paper sec. 2.3, with both scan phases
// executed by scanner under ctx. The returned Result carries a full
// transcript.
func Local(ctx context.Context, s, t []byte, sc align.LinearScoring, scanner Scanner) (align.Result, Phases, error) {
	return hirschbergPipeline(scanner).Run(ctx, s, t, sc)
}

// hirschbergPipeline is the pipeline of sec. 2.3: both scans on scanner
// (ScanSoftware when nil), retrieval by Hirschberg's algorithm, which
// needs no band.
func hirschbergPipeline(scanner Scanner) Pipeline[align.LinearScoring] {
	if scanner == nil {
		scanner = ScanSoftware{}
	}
	return Pipeline[align.LinearScoring]{
		Forward: scanner.BestLocal,
		Reverse: WholeBand(scanner.BestAnchored),
		Retrieve: func(_ context.Context, s, t []byte, sc align.LinearScoring, _, _ int) (align.Result, error) {
			return Global(s, t, sc), nil
		},
	}
}

// LocalScoreOnly runs only phase 1 and reports the score and end
// coordinates — precisely the paper's FPGA output contract.
func LocalScoreOnly(ctx context.Context, s, t []byte, sc align.LinearScoring, scanner Scanner) (Phases, error) {
	if scanner == nil {
		scanner = ScanSoftware{}
	}
	score, endI, endJ, err := scanner.BestLocal(ctx, s, t, sc)
	if err != nil {
		return Phases{}, err
	}
	return Phases{
		Score: score, EndI: endI, EndJ: endJ,
		Cells: uint64(len(s)) * uint64(len(t)),
	}, nil
}
