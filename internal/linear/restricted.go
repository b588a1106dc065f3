package linear

import (
	"context"

	"swfpga/internal/align"
)

// RestrictedInfo reports the memory accounting of a LocalRestricted run
// — the "user-restricted memory space" property of Z-align (paper
// reference [3], sec. 2.4).
type RestrictedInfo struct {
	// Phases carries the scan outputs.
	Phases Phases
	// BandLo and BandHi are the retrieval band diagonals, derived from
	// the superior and inferior divergences measured by the reverse scan.
	BandLo, BandHi int
	// RetrievalBytes is the banded retrieval's matrix footprint;
	// FullBytes is what an unbanded quadratic retrieval of the same
	// subproblem would need.
	RetrievalBytes, FullBytes uint64
}

// LocalRestricted computes the best local alignment with the Z-align
// phase structure: a forward scan finds the end coordinates, a reverse
// scan finds the start coordinates *and the path's superior/inferior
// divergences*, and the alignment is retrieved by a banded global
// alignment restricted to those divergences — so retrieval memory is
// proportional to the alignment's drift off its diagonal rather than to
// the product of the sequence lengths.
func LocalRestricted(ctx context.Context, s, t []byte, sc align.LinearScoring, scanner DivergenceScanner) (align.Result, RestrictedInfo, error) {
	if scanner == nil {
		scanner = ScanSoftware{}
	}
	var info RestrictedInfo
	r, ph, err := Pipeline[align.LinearScoring]{
		Forward:  scanner.BestLocal,
		Reverse:  scanner.BestAnchoredDivergence,
		Retrieve: banded(&info, 1, align.BandedGlobalAlign),
	}.Run(ctx, s, t, sc)
	info.Phases = ph
	return r, info, err
}
