// Package scoring defines the substitution/gap score models shared by
// every engine in the repository: the software oracles
// (internal/align, internal/linear, internal/wavefront) and the
// cycle-accurate hardware model (internal/systolic).
//
// It is deliberately a leaf package with no intra-module imports: the
// hardware model and the software oracle must not depend on each other
// (their agreement is what the cross-check tests establish), yet both
// need the same parameter types. Keeping the score models here lets
// internal/systolic stay independent of internal/align while the two
// remain call-compatible. The layering is enforced mechanically by the
// `layering` rule of cmd/swvet.
package scoring

import "fmt"

// LinearScoring is the linear gap model of the paper: a fixed reward for
// a match, penalty for a mismatch, and per-base gap penalty.
type LinearScoring struct {
	// Match is the score for two identical bases (paper: +1).
	Match int
	// Mismatch is the score for two different bases (paper: -1).
	Mismatch int
	// Gap is the penalty added per gap position (paper: -2).
	Gap int
}

// DefaultLinear returns the scoring used throughout the paper:
// +1 match, -1 mismatch, -2 gap.
func DefaultLinear() LinearScoring {
	return LinearScoring{Match: 1, Mismatch: -1, Gap: -2}
}

// Validate rejects scoring parameters under which local alignment
// degenerates (non-positive match reward, or non-negative mismatch/gap
// making arbitrary extension free).
func (sc LinearScoring) Validate() error {
	if sc.Match <= 0 {
		return fmt.Errorf("scoring: match score %d must be positive", sc.Match)
	}
	if sc.Mismatch >= sc.Match {
		return fmt.Errorf("scoring: mismatch score %d must be below match score %d", sc.Mismatch, sc.Match)
	}
	if sc.Gap >= 0 {
		return fmt.Errorf("scoring: gap penalty %d must be negative", sc.Gap)
	}
	return nil
}

// Score returns the substitution score p(a, b) of equation (1).
func (sc LinearScoring) Score(a, b byte) int {
	if a == b {
		return sc.Match
	}
	return sc.Mismatch
}

// MaxSpan bounds the database bases that any positive-scoring local
// alignment of a length-m query (m ≥ 1) can cover. It needs Gap < 0,
// as Validate requires.
//
// Proof: such an alignment has at most m substitution columns, each
// scoring at most Match, and each of its g inserted database bases
// scores Gap; deletions only lower the score. A positive integer score
// gives Match·m + Gap·g ≥ 1, so g ≤ ⌊(Match·m − 1)/−Gap⌋, and the
// alignment covers at most m + g database bases. The bound is tight:
// m matches with that many inserted bases score above 0, one more
// inserted base does not.
func (sc LinearScoring) MaxSpan(m int) int {
	return m + (sc.Match*m-1)/(-sc.Gap)
}

// AffineScoring is Gotoh's affine gap model: a gap of length k costs
// GapOpen + (k-1)*GapExtend.
type AffineScoring struct {
	// Match is the score for two identical bases.
	Match int
	// Mismatch is the score for two different bases.
	Mismatch int
	// GapOpen is the (negative) cost of the first base of a gap.
	GapOpen int
	// GapExtend is the (negative) cost of each further base.
	GapExtend int
}

// DefaultAffine returns a conventional DNA affine scoring:
// +1 match, -1 mismatch, -3 open, -1 extend.
func DefaultAffine() AffineScoring {
	return AffineScoring{Match: 1, Mismatch: -1, GapOpen: -3, GapExtend: -1}
}

// Validate rejects degenerate affine parameters.
func (sc AffineScoring) Validate() error {
	if sc.Match <= 0 {
		return fmt.Errorf("scoring: match score %d must be positive", sc.Match)
	}
	if sc.Mismatch >= sc.Match {
		return fmt.Errorf("scoring: mismatch score %d must be below match score %d", sc.Mismatch, sc.Match)
	}
	if sc.GapOpen >= 0 || sc.GapExtend >= 0 {
		return fmt.Errorf("scoring: gap costs (open %d, extend %d) must be negative", sc.GapOpen, sc.GapExtend)
	}
	if sc.GapExtend < sc.GapOpen {
		return fmt.Errorf("scoring: gap extend %d below gap open %d", sc.GapExtend, sc.GapOpen)
	}
	return nil
}

// Score returns the substitution score of the model.
func (sc AffineScoring) Score(a, b byte) int {
	if a == b {
		return sc.Match
	}
	return sc.Mismatch
}

// Linear reports whether the affine model collapses to a linear model
// (GapOpen == GapExtend), and returns that model.
func (sc AffineScoring) Linear() (LinearScoring, bool) {
	if sc.GapOpen != sc.GapExtend {
		return LinearScoring{}, false
	}
	return LinearScoring{Match: sc.Match, Mismatch: sc.Mismatch, Gap: sc.GapOpen}, true
}
