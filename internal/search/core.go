package search

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"swfpga/internal/align"
	"swfpga/internal/engine"
	"swfpga/internal/engine/sched"
	"swfpga/internal/linear"
	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

// The scan core behind Search, Stream and SearchSharded. Each entry
// point is a producer: it cuts its database into tasks, and the core
// drains them on a pool of workers with one engine each, keeping only
// the best TopK hits. That is the paper's host side, which keeps a few
// bytes per comparison while the database streams through the array:
// with TopK set, the hit state is O(TopK) whatever the number of
// records.

// task is one unit of the scan: a run of consecutive records read from
// src, the first of which has global index base.
type task struct {
	src  seq.RecordSource
	base int
	// shard is the index of the packed shard the task scans, or -1. A
	// shard task books the merge tier's per-shard span, wall time and
	// counters.
	shard int
}

// feed is a producer's side of the core.
type feed struct {
	// next produces the next task and its byte cost, or ok=false once
	// the database is exhausted. The scheduler calls it from its master
	// loop only, after the core has negotiated the batch size.
	next func(ctx context.Context) (t task, cost int64, ok bool, err error)
	// budget bounds the summed cost of admitted tasks not yet scanned;
	// <= 0 admits every task up front.
	budget int64
	// onWindow observes the admitted bytes after every admission and
	// release, onStall each producer stall on the budget; either may be
	// nil.
	onWindow func(inflightBytes int64)
	onStall  func(inflightBytes int64)
}

// scan is one validated query-vs-database scan.
type scan struct {
	query     []byte
	opts      Options
	newEngine Factory
	// batch is the negotiated record-group size (1 scans record by
	// record). run sets it before the first task is produced.
	batch int
}

// newScan validates what every entry point shares and resolves the
// option defaults.
func newScan(query []byte, opts Options, newEngine Factory) (*scan, error) {
	o := opts.withDefaults()
	if err := o.Scoring.Validate(); err != nil {
		return nil, err
	}
	if len(query) == 0 {
		return nil, fmt.Errorf("search: empty query")
	}
	if newEngine == nil {
		newEngine = EngineFactory("software", engine.Config{})
	}
	return &scan{query: query, opts: o, newEngine: newEngine}, nil
}

// build makes one engine through the factory.
func (s *scan) build() (engine.Engine, error) {
	e, err := s.newEngine()
	if err != nil {
		return nil, err
	}
	if e == nil {
		return nil, fmt.Errorf("search: engine factory returned nil")
	}
	return e, nil
}

// run drains every task f produces on the given number of workers and
// returns the best hits in the canonical order. Hits are a pure
// function of the records: independent of worker count, task size,
// budget and completion order. The first error cancels the scan.
func (s *scan) run(ctx context.Context, workers int, f feed) ([]Hit, error) {
	// Each worker's engine is built lazily on its first task; the probe
	// that negotiated the batch size becomes worker 0's. A worker has at
	// most one attempt in flight, and consecutive attempts on a worker
	// are sequenced through the scheduler's master loop, so the slot
	// needs no lock.
	engines := make([]engine.Engine, workers)
	probe, err := s.negotiate()
	if err != nil {
		return nil, err
	}
	engines[0] = probe

	// window holds produced tasks by scheduler index until they are
	// scanned and released: the master writes it, the workers read it.
	// keep is the scan's running top-k, fed each task's survivors.
	var (
		winMu    sync.Mutex
		window   = map[int]task{}
		produced int
		keepMu   sync.Mutex
		keep     = topK{k: s.opts.TopK}
	)
	h := sched.StreamHooks{
		Hooks: sched.Hooks{
			// Classify is nil: the first error aborts the run and cancels
			// the in-flight scans, and no task is retried, so each
			// task's source is read once.
			Do: func(sctx context.Context, w int, tk sched.Task) error {
				if engines[w] == nil {
					e, err := s.build()
					if err != nil {
						return err
					}
					engines[w] = e
				}
				winMu.Lock()
				t := window[tk.Index]
				winMu.Unlock()
				hs, err := s.drain(sctx, t, engines[w])
				if err != nil {
					return err
				}
				keepMu.Lock()
				keep.add(hs)
				keepMu.Unlock()
				return nil
			},
		},
		Next: func(nctx context.Context) (int64, bool, error) {
			t, cost, ok, err := f.next(nctx)
			if err != nil || !ok {
				return 0, false, err
			}
			winMu.Lock()
			window[produced] = t
			winMu.Unlock()
			produced++
			return cost, true, nil
		},
		OnAdmit: func(_ sched.Task, bytes int64) {
			if f.onWindow != nil {
				f.onWindow(bytes)
			}
		},
		OnRelease: func(tk sched.Task, bytes int64) {
			winMu.Lock()
			delete(window, tk.Index)
			winMu.Unlock()
			if f.onWindow != nil {
				f.onWindow(bytes)
			}
		},
		OnStall: f.onStall,
	}
	err = sched.RunStream(ctx, sched.StreamConfig{
		Config:      sched.Config{Workers: workers},
		BudgetBytes: f.budget,
	}, h)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("search: %w", cerr)
		}
		return nil, err
	}
	return keep.final(), nil
}

// negotiate resolves the scan's record-group size. Batching
// (SWAPHI-style) applies only to the score-only single-hit search on
// engines that advertise it: Options.Batch == 1 forces the per-record
// contract without probing; otherwise one engine is probed up front —
// Batch > 1 requests that exact group size, Batch == 0 defers to the
// probed engine's PreferredBatch, and engines without the Batcher
// interface (or a preference) keep record-by-record. The probe, when
// non-nil, is returned so the caller can seed its worker pool instead
// of wasting the construction.
func (s *scan) negotiate() (engine.Engine, error) {
	s.batch = 1
	o := s.opts
	if o.Batch == 1 || o.PerRecord != 1 || o.Retrieve {
		return nil, nil
	}
	probe, err := s.build()
	if err != nil {
		return nil, err
	}
	if engine.BatcherFor(probe) != nil {
		if o.Batch > 1 {
			s.batch = o.Batch
		} else if pb := probe.Capabilities().PreferredBatch; pb > 1 {
			s.batch = pb
		}
	}
	return probe, nil
}

// drain scans one task's records on engine e — in negotiated
// batch-sized groups through the engine's batch path, or one by one —
// and returns the task's hits cut to the top k.
func (s *scan) drain(ctx context.Context, t task, e engine.Engine) ([]Hit, error) {
	var span *telemetry.Span
	if t.shard >= 0 {
		ctx, span = telemetry.StartSpan(ctx, telemetry.SpanSearchShard)
		span.SetInt("shard", int64(t.shard))
		t0 := time.Now()
		defer func() {
			telemetry.ShardScanSeconds.Observe(time.Since(t0).Seconds())
			span.End()
		}()
	}
	keep := topK{k: s.opts.TopK}
	// group buffers up to batch consecutive records, starting at global
	// index gbase, before one batch dispatch.
	var group []seq.Sequence
	if s.batch > 1 {
		group = make([]seq.Sequence, 0, s.batch)
	}
	gbase := t.base
	flush := func() error {
		if len(group) == 0 {
			return nil
		}
		hs, err := s.scanGroup(ctx, group, gbase, e)
		if err != nil {
			return err
		}
		keep.add(hs)
		gbase += len(group)
		group = group[:0]
		return nil
	}
	n := 0
	for ; ; n++ {
		rec, err := t.src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if s.batch > 1 {
			group = append(group, rec)
			if len(group) >= s.batch {
				if err := flush(); err != nil {
					return nil, err
				}
			}
			continue
		}
		hs, err := s.scanRecord(ctx, rec, t.base+n, e)
		if err != nil {
			return nil, fmt.Errorf("search: record %q: %w", rec.ID, err)
		}
		keep.add(hs)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	out := keep.final()
	if t.shard >= 0 {
		span.SetInt("records", int64(n))
		span.SetInt("hits", int64(len(out)))
		telemetry.ShardScans.Inc()
		telemetry.ShardTopKHits.Add(int64(len(out)))
	}
	return out, nil
}

// hit makes the hit of alignment r in record rec (global index idx).
// Its statistics are computed here, while the record's length is at
// hand, so nothing per record outlives the scan of the record.
func (s *scan) hit(rec seq.Sequence, idx int, r align.Result) Hit {
	h := Hit{RecordID: rec.ID, RecordIndex: idx, Result: r}
	if st := s.opts.Stats; st != nil {
		h.EValue = st.EValue(len(s.query), len(rec.Data), r.Score)
		h.BitScore = st.BitScore(r.Score)
	}
	return h
}

// endOnly is the result of a score-only scan: it knows where the
// alignment ends but not where it starts, so the spans are left empty
// at the end coordinates.
func endOnly(score, endI, endJ int) align.Result {
	return align.Result{Score: score, SEnd: endI, TEnd: endJ, SStart: endI, TStart: endJ}
}

// scanGroup scores one record group, whose first record has global
// index base, through the engine's batch path: one query upload for
// the group. Only the score-only single-hit search reaches it, so each
// record yields at most one end-coordinate hit — the same Hit as the
// per-record path, which keeps batched and unbatched scans
// bit-identical.
func (s *scan) scanGroup(ctx context.Context, recs []seq.Sequence, base int, e engine.Engine) ([]Hit, error) {
	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanSearchBatch)
	span.SetInt("records", int64(len(recs)))
	span.SetInt("index", int64(base))
	defer span.End()
	records := make([][]byte, len(recs))
	for i := range recs {
		records[i] = recs[i].Data
	}
	results, err := engine.BatcherFor(e).BatchScan(ctx, s.query, records, s.opts.Scoring)
	if err != nil {
		return nil, fmt.Errorf("search: records %q..%q: %w", recs[0].ID, recs[len(recs)-1].ID, err)
	}
	out := make([]Hit, 0, len(results))
	for i, r := range results {
		if r.Score >= s.opts.MinScore {
			out = append(out, s.hit(recs[i], base+i, endOnly(r.Score, r.EndI, r.EndJ)))
		}
	}
	return out, nil
}

// scanRecord produces the hits of one database record. Each record gets
// its own span and a wall-time observation (swfpga_record_wall_seconds)
// so slow records stand out in the trace and the histogram.
func (s *scan) scanRecord(ctx context.Context, rec seq.Sequence, idx int, scanner linear.Scanner) ([]Hit, error) {
	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanSearchRecord)
	span.SetInt("index", int64(idx))
	span.SetInt("bases", int64(len(rec.Data)))
	t0 := time.Now()
	defer func() {
		telemetry.RecordSeconds.Observe(time.Since(t0).Seconds())
		span.End()
	}()
	o := s.opts
	if o.PerRecord > 1 {
		results, err := linear.NearBest(ctx, s.query, rec.Data, o.Scoring, o.PerRecord, o.MinScore, scanner)
		if err != nil {
			return nil, err
		}
		hits := make([]Hit, 0, len(results))
		for _, r := range results {
			if !o.Retrieve {
				r.Ops = nil
			}
			hits = append(hits, s.hit(rec, idx, r))
		}
		return hits, nil
	}
	if o.Retrieve {
		r, _, err := linear.Local(ctx, s.query, rec.Data, o.Scoring, scanner)
		if err != nil || r.Score < o.MinScore {
			return nil, err
		}
		return []Hit{s.hit(rec, idx, r)}, nil
	}
	ph, err := linear.LocalScoreOnly(ctx, s.query, rec.Data, o.Scoring, scanner)
	if err != nil || ph.Score < o.MinScore {
		return nil, err
	}
	return []Hit{s.hit(rec, idx, endOnly(ph.Score, ph.EndI, ph.EndJ))}, nil
}

// topK retains the best k hits under the canonical order (k <= 0 keeps
// everything). Instead of a heap it accumulates and periodically
// re-sorts at 2k+64 — the same comparison as the final cut, so the
// retained set is exactly the k canonical-order leaders, and amortized
// cost stays O(n log k) without a second ordering to keep consistent.
type topK struct {
	k    int
	hits []Hit
}

func (t *topK) add(hs []Hit) {
	t.hits = append(t.hits, hs...)
	if t.k > 0 && len(t.hits) >= 2*t.k+64 {
		sortHits(t.hits)
		t.hits = t.hits[:t.k]
	}
}

func (t *topK) final() []Hit {
	sortHits(t.hits)
	if t.k > 0 && len(t.hits) > t.k {
		t.hits = t.hits[:t.k]
	}
	return t.hits
}
