package search

import (
	"context"
	"fmt"

	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

// ShardedOptions controls a scatter-gather search over a packed shard
// index.
type ShardedOptions struct {
	Options
	// ShardWorkers is the number of shards scanned concurrently
	// (default: the resolved Options.Workers). Each shard worker owns
	// one engine and scans its shard's records sequentially, so total
	// engine parallelism equals ShardWorkers.
	ShardWorkers int
}

// SearchSharded scans query against every record of a packed shard
// index. Each shard is one task of the scan core: the worker that scans
// it unpacks its records and keeps only the shard's top-k hits, and the
// per-shard survivors merge under the canonical order into the global
// ranking. Because that order is total (see hitLess), the global
// top-k is always contained in the union of per-shard top-ks — the
// merged result is bit-identical to Search / Stream over the equivalent
// flat database, which the conformance suite asserts across every
// registered engine.
//
// Batch negotiation works exactly as in Search: on engines that
// advertise the Batch capability, score-only single-hit scans group
// consecutive records of a shard into batch-sized dispatches; the
// per-shard top-k cut and the merge see the same hits either way.
func SearchSharded(ctx context.Context, idx *seq.ShardIndex, query []byte, opts ShardedOptions, newEngine Factory) ([]Hit, error) {
	if idx == nil {
		return nil, fmt.Errorf("search: nil shard index")
	}
	s, err := newScan(query, opts.Options, newEngine)
	if err != nil {
		return nil, err
	}
	workers := opts.ShardWorkers
	if workers <= 0 {
		workers = s.opts.Workers
	}
	workers = min(workers, idx.Shards())
	if workers == 0 {
		return nil, nil
	}
	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanSearchSharded)
	span.SetInt("shards", int64(idx.Shards()))
	span.SetInt("records", idx.Records())
	span.SetInt("query_len", int64(len(query)))
	span.SetInt("workers", int64(workers))
	defer span.End()

	// One task per shard, all admitted up front. The master only opens
	// a shard's source; the worker that scans it unpacks its records.
	shard := 0
	hits, err := s.run(ctx, workers, feed{
		next: func(context.Context) (task, int64, bool, error) {
			if shard >= idx.Shards() {
				return task{}, 0, false, nil
			}
			t := task{src: idx.ShardSource(shard), base: int(idx.ShardRecordBase(shard)), shard: shard}
			shard++
			return t, 0, true, nil
		},
	})
	if err != nil {
		return nil, err
	}
	span.SetInt("hits", int64(len(hits)))
	return hits, nil
}
