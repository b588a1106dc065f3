package linear

import (
	"container/heap"
	"context"

	"swfpga/internal/align"
)

// NearBest finds up to k local alignments that do not overlap in the
// database sequence, each scoring at least minScore, in descending score
// order. This mirrors the multi-alignment variant of the linear-space
// method (paper sec. 2.4, Chen & Schmidt [6]): after an alignment is
// located and retrieved, the database is split around its span and the
// flanks are searched, so every reported alignment uses a disjoint
// database region. Exactness: each candidate window carries the best
// score inside it, and windows are expanded best-first, so the i-th
// result is the true i-th best non-overlapping alignment under this
// splitting scheme. Memory stays linear throughout.
func NearBest(ctx context.Context, s, t []byte, sc align.LinearScoring, k, minScore int, scanner Scanner) ([]align.Result, error) {
	if k <= 0 {
		return nil, nil
	}
	if minScore < 1 {
		minScore = 1
	}
	p := hirschbergPipeline(scanner)
	var wq windowQueue
	// push runs phase 1 on a window and keeps its end cell, so a popped
	// window enters the pipeline at phase 2: each window is scanned
	// forward once.
	push := func(lo, hi int) error {
		if hi-lo == 0 {
			return nil
		}
		score, endI, endJ, err := p.Forward(ctx, s, t[lo:hi], sc)
		if err != nil {
			return err
		}
		if score >= minScore {
			heap.Push(&wq, window{lo: lo, hi: hi, end: Phases{Score: score, EndI: endI, EndJ: endJ}})
		}
		return nil
	}
	if err := push(0, len(t)); err != nil {
		return nil, err
	}
	var out []align.Result
	for wq.Len() > 0 && len(out) < k {
		w := heap.Pop(&wq).(window)
		r, _, err := p.FromEnd(ctx, s, t[w.lo:w.hi], sc, w.end)
		if err != nil {
			return nil, err
		}
		// Shift database coordinates back to the full sequence.
		r.TStart += w.lo
		r.TEnd += w.lo
		out = append(out, r)
		// The flanks may hold further non-overlapping hits.
		if err := push(w.lo, r.TStart); err != nil {
			return nil, err
		}
		if err := push(r.TEnd, w.hi); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// window is a database region [lo, hi) with phase 1's best local score
// and end cell over it.
type window struct {
	lo, hi int
	end    Phases
}

// windowQueue is a max-heap of windows by best score.
type windowQueue []window

func (q windowQueue) Len() int            { return len(q) }
func (q windowQueue) Less(i, j int) bool  { return q[i].end.Score > q[j].end.Score }
func (q windowQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *windowQueue) Push(x interface{}) { *q = append(*q, x.(window)) }
func (q *windowQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
