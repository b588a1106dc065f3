package engine

import (
	"bytes"
	"context"

	"swfpga/internal/align"
	"swfpga/internal/linear"
	"swfpga/internal/swar"
	"swfpga/internal/telemetry"
)

func init() {
	Register("swar", newSwarEngine)
}

// swarEngine is the sixth backend: the SWAR interleaved software kernel
// (internal/swar) behind the batch interface and BestLocal, with the
// sequential reference scanner serving every other operation. The embedded
// scalar path doubles as the overflow escape hatch — a record whose
// score saturates every lane tier is re-scored by align.LocalScore, so
// a scan never aborts the way narrow systolic registers do.
//
// The engine is a pointer type so the query profile survives across
// BatchScan calls: a database search scores one query against many
// record groups, and rebuilding the per-symbol lane profile for each
// group would hand back a chunk of the SWAR win. Like every backend,
// an instance is not safe for concurrent use; per-worker callers
// construct one engine per goroutine, so the cache needs no lock.
type swarEngine struct {
	linear.ScanSoftware

	query []byte
	sc    align.LinearScoring
	k     *swar.Kernel
}

func newSwarEngine(cfg Config) (Engine, error) {
	return &swarEngine{}, nil
}

func (*swarEngine) Name() string { return "swar" }

func (*swarEngine) Capabilities() Capabilities {
	return Capabilities{
		Divergence:     true,
		Affine:         true,
		Batch:          true,
		PreferredBatch: swar.GroupSize,
	}
}

// kernel returns the cached query profile, rebuilding it only when the
// query bytes or the scoring parameters change.
func (e *swarEngine) kernel(query []byte, sc align.LinearScoring) *swar.Kernel {
	if e.k == nil || e.sc != sc || !bytes.Equal(e.query, query) {
		e.k = swar.NewKernel(query, sc)
		e.query = append(e.query[:0], query...)
		e.sc = sc
	}
	return e.k
}

// minLaneGroup is the smallest group worth a lane pass. A SWAR pass
// costs roughly the same wall time however many of its lanes are
// occupied — about three scalar scans' worth — so groups below four
// records (stream byte budgets can shrink them all the way to one) are
// scored one record at a time instead of paying for empty lanes: a
// long record fills a lane group with its own segments (bestLocal), a
// short one takes the scalar path.
const minLaneGroup = 4

// segmentation returns how bestLocal cuts a length-n record into
// swar.GroupSize overlapping segments for a length-m query: segment i
// starts at i·step and runs span bases past the next segment's start.
// span bounds the database bases any positive-scoring local alignment
// covers (LinearScoring.MaxSpan), so every optimal alignment lies whole
// inside some segment. ok is false when the scoring breaks that bound
// (an unvalidated one) or the record is too short: the step must be at
// least 4·span, so the overlap adds at most a quarter more cells.
func segmentation(m, n int, sc align.LinearScoring) (step, span int, ok bool) {
	if m == 0 || sc.Validate() != nil {
		return 0, 0, false
	}
	span = sc.MaxSpan(m)
	if n <= span {
		return 0, 0, false
	}
	step = (n - span + swar.GroupSize - 1) / swar.GroupSize
	return step, span, step >= 4*span
}

// bestLocal scores one record exactly as align.LocalScore does. A
// record long enough to segment is scored as swar.GroupSize
// overlapping segments in one lane group: each segment's DP value at a
// cell is at most the whole record's, and the segment holding an
// optimal alignment of the best cell reaches it, so the best over
// segments (score, then smallest EndI, then smallest global EndJ) is
// the record's answer. Eligibility is settled before the kernel cache
// is touched, so short records never rebuild the query profile.
func (e *swarEngine) bestLocal(s, t []byte, sc align.LinearScoring) BatchResult {
	step, span, ok := segmentation(len(s), len(t), sc)
	var k *swar.Kernel
	if ok {
		k = e.kernel(s, sc)
		ok8, ok16 := k.Tiers()
		ok = ok8 || ok16
	}
	if !ok {
		score, endI, endJ := align.LocalScore(s, t, sc)
		return BatchResult{Score: score, EndI: endI, EndJ: endJ}
	}
	// Rounding the step up can leave the last segments empty when span
	// is tiny; an empty lane scores zero.
	var segs [swar.GroupSize][]byte
	for i := range segs {
		lo := min(i*step, len(t))
		segs[i] = t[lo:min(lo+step+span, len(t))]
	}
	var res [swar.GroupSize]swar.Result
	st := k.ScanGroup(segs[:], res[:])
	telemetry.SwarGroups.Inc()
	if st.Promotions > 0 {
		telemetry.SwarPromotions.Add(int64(st.Promotions))
	}
	if st.Fallbacks > 0 {
		telemetry.SwarFallbacks.Add(int64(st.Fallbacks))
	} else {
		telemetry.SwarRecords.Inc()
	}
	var best BatchResult
	for i, r := range res {
		if r.Overflow {
			r.Score, r.EndI, r.EndJ = align.LocalScore(s, segs[i], sc)
		}
		if r.Score == 0 {
			continue
		}
		r.EndJ += i * step
		if r.Score > best.Score || r.Score == best.Score &&
			(r.EndI < best.EndI || r.EndI == best.EndI && r.EndJ < best.EndJ) {
			best = BatchResult{Score: r.Score, EndI: r.EndI, EndJ: r.EndJ}
		}
	}
	return best
}

// BestLocal overrides the embedded scalar scan so single-record scans
// (Batch 1, phase 1 of retrieval, near-best windows) of long records
// run in lanes too.
func (e *swarEngine) BestLocal(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	r := e.bestLocal(s, t, sc)
	return r.Score, r.EndI, r.EndJ, nil
}

// BatchScan implements Batcher: records are scored swar.GroupSize at a
// time through the lane kernel, and any lane the kernel hands back as
// Overflow is re-scored by the scalar oracle, so the results are
// bit-identical to the software engine for every record.
func (e *swarEngine) BatchScan(ctx context.Context, query []byte, records [][]byte, sc align.LinearScoring) ([]BatchResult, error) {
	k := e.kernel(query, sc)
	out := make([]BatchResult, len(records))
	var res [swar.GroupSize]swar.Result
	for lo := 0; lo < len(records); lo += swar.GroupSize {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := min(lo+swar.GroupSize, len(records))
		group := records[lo:hi]
		if len(group) < minLaneGroup {
			for i, rec := range group {
				out[lo+i] = e.bestLocal(query, rec, sc)
			}
			continue
		}
		st := k.ScanGroup(group, res[:len(group)])
		telemetry.SwarGroups.Inc()
		if st.Promotions > 0 {
			telemetry.SwarPromotions.Add(int64(st.Promotions))
		}
		if st.Fallbacks > 0 {
			telemetry.SwarFallbacks.Add(int64(st.Fallbacks))
		}
		inLane := 0
		for i, r := range res[:len(group)] {
			if r.Overflow {
				score, endI, endJ := align.LocalScore(query, group[i], sc)
				r = swar.Result{Score: score, EndI: endI, EndJ: endJ}
			} else {
				inLane++
			}
			out[lo+i] = BatchResult{Score: r.Score, EndI: r.EndI, EndJ: r.EndJ}
		}
		telemetry.SwarRecords.Add(int64(inLane))
	}
	return out, nil
}
