// Package search implements query-vs-database scanning — the workload
// of the paper's evaluation generalized to multi-record databases: a
// query is compared against every record of a FASTA database, records
// are scanned concurrently, and hits are ranked by score. The scan
// engine is pluggable through the internal/engine registry (pure
// software, the simulated accelerator, the wavefront schedule or a
// board cluster per worker), mirroring how the proposed architecture
// would sit inside a sequence-database service.
package search

import (
	"context"
	"runtime"
	"slices"

	"swfpga/internal/align"
	"swfpga/internal/engine"
	"swfpga/internal/evalue"
	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

// Hit is one reported match.
type Hit struct {
	// RecordID and RecordIndex identify the database record.
	RecordID    string
	RecordIndex int
	// Result holds the score and (record-relative) coordinates; Ops is
	// populated only when Options.Retrieve is set.
	Result align.Result
	// EValue and BitScore are Karlin-Altschul statistics, populated when
	// Options.Stats is set (zero otherwise).
	EValue, BitScore float64
}

// Options controls a search.
type Options struct {
	// Scoring is the linear gap model (DefaultLinear if zero).
	Scoring align.LinearScoring
	// MinScore drops hits below the threshold (default 1).
	MinScore int
	// TopK keeps only the best K hits overall (0 keeps all).
	TopK int
	// PerRecord reports up to this many non-overlapping hits per record
	// (default 1; values > 1 use the near-best search of sec. 2.4).
	PerRecord int
	// Retrieve also reconstructs the alignments of reported hits with
	// the three-phase linear-space pipeline. Without it only scores and
	// end coordinates are computed — the paper's FPGA output contract.
	Retrieve bool
	// Workers is the number of records scanned concurrently
	// (default GOMAXPROCS).
	Workers int
	// Batch groups this many records per dispatch when the engine
	// advertises the Batch capability (score-only, single-hit searches):
	// the query is uploaded to the board once per batch instead of once
	// per record, the SWAPHI-style amortization. 0 (the default) defers
	// to the engine's preferred group size (Capabilities.PreferredBatch;
	// engines without a preference scan record by record), 1 forces the
	// per-record contract, and > 1 requests that exact group size.
	Batch int
	// Stats, when set, annotates every hit with its expect value and bit
	// score for the (query x record) search space.
	Stats *evalue.Params
}

func (o Options) withDefaults() Options {
	if o.Scoring == (align.LinearScoring{}) {
		o.Scoring = align.DefaultLinear()
	}
	if o.MinScore < 1 {
		o.MinScore = 1
	}
	if o.PerRecord <= 0 {
		o.PerRecord = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Batch < 0 {
		o.Batch = 0 // 0 = defer to the engine's preferred batch size
	}
	return o
}

// Factory builds one scan engine per worker (engines may be stateful —
// a simulated board accumulates metrics — so they are never shared
// between goroutines). A nil Factory selects the software engine.
type Factory func() (engine.Engine, error)

// EngineFactory adapts a registry name and construction config into a
// per-worker Factory.
func EngineFactory(name string, cfg engine.Config) Factory {
	return func() (engine.Engine, error) { return engine.New(name, cfg) }
}

// Search scans query against every record of db. newEngine supplies
// each worker its own scan engine; a nil factory uses the software
// engine. Cancelling ctx stops the scan between records; the first
// worker error cancels the remaining work instead of letting every
// queued record run to completion (the scheduler's default policy).
//
// Hit order is fully deterministic: score descending, then record
// index, start and end coordinates ascending — independent of worker
// count and completion order.
func Search(ctx context.Context, db []seq.Sequence, query []byte, opts Options, newEngine Factory) ([]Hit, error) {
	s, err := newScan(query, opts, newEngine)
	if err != nil {
		return nil, err
	}
	workers := min(s.opts.Workers, len(db))
	if workers == 0 {
		return nil, nil
	}
	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanSearch)
	span.SetInt("records", int64(len(db)))
	span.SetInt("query_len", int64(len(query)))
	span.SetInt("workers", int64(workers))
	defer span.End()

	// One task per negotiated batch of records, all admitted up front.
	lo := 0
	hits, err := s.run(ctx, workers, feed{
		next: func(context.Context) (task, int64, bool, error) {
			if lo >= len(db) {
				return task{}, 0, false, nil
			}
			hi := min(lo+s.batch, len(db))
			t := task{src: seq.SliceSource(db[lo:hi]), base: lo, shard: -1}
			lo = hi
			return t, 0, true, nil
		},
	})
	if err != nil {
		return nil, err
	}
	span.SetInt("hits", int64(len(hits)))
	return hits, nil
}

// sortHits applies the canonical deterministic hit order: score
// descending, then record index, then start coordinates (database,
// query), then end coordinates. Every field of the comparison is a
// scan output, so the order is a pure function of the inputs —
// independent of worker count, batching and completion order.
func sortHits(out []Hit) {
	slices.SortStableFunc(out, func(a, b Hit) int {
		switch {
		case hitLess(&a, &b):
			return -1
		case hitLess(&b, &a):
			return 1
		}
		return 0
	})
}

// hitLess is the canonical order's comparison. Distinct hits always
// differ in at least one compared field (two hits agreeing on record
// and all four coordinates are the same alignment), so the order is
// total — which is what lets the sharded merge tier cut each shard to
// its local top-k and still reproduce a flat scan bit for bit.
func hitLess(a, b *Hit) bool {
	if a.Result.Score != b.Result.Score {
		return a.Result.Score > b.Result.Score
	}
	if a.RecordIndex != b.RecordIndex {
		return a.RecordIndex < b.RecordIndex
	}
	if a.Result.TStart != b.Result.TStart {
		return a.Result.TStart < b.Result.TStart
	}
	if a.Result.SStart != b.Result.SStart {
		return a.Result.SStart < b.Result.SStart
	}
	if a.Result.TEnd != b.Result.TEnd {
		return a.Result.TEnd < b.Result.TEnd
	}
	return a.Result.SEnd < b.Result.SEnd
}
