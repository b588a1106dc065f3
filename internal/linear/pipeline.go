package linear

import (
	"context"
	"fmt"

	"swfpga/internal/align"
	"swfpga/internal/seq"
)

// Pipeline is the three-phase linear-space local alignment of paper
// sec. 2.3, written once for every scan engine and retriever: a forward
// scan finds where the best local alignment ends, a reverse scan over
// the reversed prefixes finds where it starts, and a global retrieval
// aligns the span between. Z-align's restricted-memory retrieval and the
// near-best search of sec. 2.4 are the same phases with another
// retriever or entry point. S is the scoring model the three phases
// share (align.LinearScoring or align.AffineScoring).
type Pipeline[S any] struct {
	// Forward is phase 1: the best local score of s × t and its 1-based
	// end cell.
	Forward func(ctx context.Context, s, t []byte, sc S) (score, endI, endJ int, err error)
	// Reverse is phase 2, run over the reversed prefixes that end at the
	// end cell: the best score of alignments anchored at (0,0), its
	// 1-based end cell, and the extreme diagonals j−i that one optimal
	// path reaches (its inferior and superior divergences). WholeBand
	// adapts a scan that does not track them.
	Reverse func(ctx context.Context, s, t []byte, sc S) (score, endI, endJ, infDiv, supDiv int, err error)
	// Retrieve is phase 3: an optimal global alignment of the span s × t
	// the scans located. Some optimal path stays between the diagonals
	// lo and hi (d = j − i), the band the reverse scan's divergences give
	// (paper sec. 2.4, Z-align [3]).
	Retrieve func(ctx context.Context, s, t []byte, sc S, lo, hi int) (align.Result, error)
}

// Run runs the three phases over s × t under ctx. A zero best score
// ends the run after phase 1 with an empty Result.
func (p Pipeline[S]) Run(ctx context.Context, s, t []byte, sc S) (align.Result, Phases, error) {
	score, endI, endJ, err := p.Forward(ctx, s, t, sc)
	if err != nil {
		return align.Result{}, Phases{}, fmt.Errorf("linear: forward scan: %w", err)
	}
	return p.FromEnd(ctx, s, t, sc, Phases{Score: score, EndI: endI, EndJ: endJ})
}

// FromEnd enters the pipeline at phase 2, for a caller that has already
// scanned s × t: end carries phase 1's Score, EndI and EndJ.
func (p Pipeline[S]) FromEnd(ctx context.Context, s, t []byte, sc S, end Phases) (align.Result, Phases, error) {
	return fromEnd(s, t, end,
		func(s, t []byte) (int, int, int, int, int, error) { return p.Reverse(ctx, s, t, sc) },
		func(s, t []byte, lo, hi int) (align.Result, error) { return p.Retrieve(ctx, s, t, sc, lo, hi) })
}

// fromEnd is phases 2 and 3 with the context and scoring bound into
// reverse and retrieve, so LocalAffine, whose signature carries no
// context, runs the same code. Phases.Cells counts the logical cells
// of both scans, m·n + endI·endJ.
func fromEnd(s, t []byte, end Phases,
	reverse func(s, t []byte) (score, endI, endJ, infDiv, supDiv int, err error),
	retrieve func(s, t []byte, lo, hi int) (align.Result, error),
) (align.Result, Phases, error) {
	ph := Phases{Score: end.Score, EndI: end.EndI, EndJ: end.EndJ,
		Cells: uint64(len(s)) * uint64(len(t))}
	if ph.Score == 0 {
		return align.Result{}, ph, nil
	}
	revScore, revI, revJ, infDiv, supDiv, err := reverse(seq.Reverse(s[:ph.EndI]), seq.Reverse(t[:ph.EndJ]))
	if err != nil {
		return align.Result{}, ph, fmt.Errorf("linear: reverse scan: %w", err)
	}
	ph.Cells += uint64(ph.EndI) * uint64(ph.EndJ)
	if revScore != ph.Score {
		return align.Result{}, ph, fmt.Errorf(
			"linear: reverse scan score %d != forward score %d (end %d,%d)",
			revScore, ph.Score, ph.EndI, ph.EndJ)
	}
	ph.StartI, ph.StartJ = ph.EndI-revI, ph.EndJ-revJ
	// Reverse cell (i', j') is forward cell (revI−i', revJ−j') of the
	// span, so reverse diagonal d' is forward diagonal (revJ−revI) − d'.
	diag := revJ - revI
	lo, hi := diag-supDiv, diag-infDiv
	sub, err := retrieve(s[ph.StartI:ph.EndI], t[ph.StartJ:ph.EndJ], lo, hi)
	if err != nil {
		return align.Result{}, ph, fmt.Errorf("linear: retrieval: %w", err)
	}
	if sub.Score != ph.Score {
		return align.Result{}, ph, fmt.Errorf(
			"linear: retrieval score %d != scan score %d (span s[%d:%d], t[%d:%d], band [%d,%d])",
			sub.Score, ph.Score, ph.StartI, ph.EndI, ph.StartJ, ph.EndJ, lo, hi)
	}
	return align.Result{
		Score:  ph.Score,
		SStart: ph.StartI, SEnd: ph.EndI,
		TStart: ph.StartJ, TEnd: ph.EndJ,
		Ops: sub.Ops,
	}, ph, nil
}

// WholeBand adapts a reverse scan that does not track divergences to
// Pipeline.Reverse: it reports the divergences of the whole reversed
// rectangle, a band every path lies in.
func WholeBand[S any](scan func(ctx context.Context, s, t []byte, sc S) (int, int, int, error)) func(ctx context.Context, s, t []byte, sc S) (int, int, int, int, int, error) {
	return func(ctx context.Context, s, t []byte, sc S) (int, int, int, int, int, error) {
		return wholeBand(scan(ctx, s, t, sc))
	}
}

// wholeBand appends the divergences of the endI × endJ rectangle.
func wholeBand(score, endI, endJ int, err error) (int, int, int, int, int, error) {
	return score, endI, endJ, -endI, endJ, err
}

// banded returns the Z-align retriever: fn aligns the span inside the
// band, and info records the band and the footprint of fn's planes DP
// matrices beside what the unbanded matrices would take.
func banded[S any](info *RestrictedInfo, planes uint64, fn func(s, t []byte, sc S, lo, hi int) (align.Result, error)) func(context.Context, []byte, []byte, S, int, int) (align.Result, error) {
	return func(_ context.Context, s, t []byte, sc S, lo, hi int) (align.Result, error) {
		info.BandLo, info.BandHi = lo, hi
		info.RetrievalBytes = planes * align.BandedBytes(len(s), lo, hi)
		info.FullBytes = planes * QuadraticBytes(len(s), len(t))
		return fn(s, t, sc, lo, hi)
	}
}
