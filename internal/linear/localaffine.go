package linear

import (
	"context"

	"swfpga/internal/align"
)

// LocalAffine computes the best affine-gap local alignment in linear
// memory with the three-phase method: a Gotoh forward scan locates the
// end coordinates, a Gotoh anchored scan over the reversed prefixes
// locates the start, and Myers-Miller retrieves the alignment — the
// affine-gap completion of the sec. 2.3 pipeline (the model the paper's
// intro cites for long-sequence comparisons, e.g. Z-align [3]).
func LocalAffine(s, t []byte, sc align.AffineScoring) (align.Result, Phases, error) {
	if err := sc.Validate(); err != nil {
		return align.Result{}, Phases{}, err
	}
	score, endI, endJ := align.AffineLocalScore(s, t, sc)
	return fromEnd(s, t, Phases{Score: score, EndI: endI, EndJ: endJ},
		func(s, t []byte) (int, int, int, int, int, error) {
			score, endI, endJ := align.AffineAnchoredBest(s, t, sc)
			return wholeBand(score, endI, endJ, nil)
		},
		func(s, t []byte, _, _ int) (align.Result, error) { return GlobalAffine(s, t, sc) })
}

// LocalAffineRestricted is LocalAffine with the Z-align restricted-
// memory retrieval: the reverse scan also reports the optimal path's
// divergences and the alignment is recovered by a banded affine global
// alignment inside them — the exact configuration the paper's intro
// cites (affine-gap megabase comparisons in user-restricted memory).
func LocalAffineRestricted(ctx context.Context, s, t []byte, sc align.AffineScoring, scanner AffineScanner) (align.Result, RestrictedInfo, error) {
	if err := sc.Validate(); err != nil {
		return align.Result{}, RestrictedInfo{}, err
	}
	if scanner == nil {
		scanner = ScanSoftware{}
	}
	var info RestrictedInfo
	r, ph, err := Pipeline[align.AffineScoring]{
		Forward: scanner.BestAffineLocal,
		Reverse: scanner.BestAffineAnchoredDivergence,
		// Gotoh's recurrence keeps three DP matrices.
		Retrieve: banded(&info, 3, align.BandedAffineGlobalAlign),
	}.Run(ctx, s, t, sc)
	info.Phases = ph
	return r, info, err
}
