package search

import (
	"context"
	"fmt"
	"io"

	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

// StreamOptions controls a streaming search.
type StreamOptions struct {
	Options
	// MaxMemoryBytes bounds the parsed record data admitted to the
	// prefetch window (records in flight between the parser and the scan
	// workers). The producer stalls at the budget and resumes as scanned
	// records are released, so peak memory tracks the budget instead of
	// the database size. Because a record's size is only known after
	// parsing it, the window may overshoot by one record; a single
	// record larger than the budget still streams (alone). <= 0 leaves
	// the window unbounded.
	MaxMemoryBytes int64
}

// streamRecordOverhead is the per-record bookkeeping charge added to a
// record's data bytes when it is admitted, so header-only records are
// not free and the budget tracks real footprint, not just bases.
const streamRecordOverhead = 64

// Stream scans query against every record produced by src, holding at
// most opts.MaxMemoryBytes of parsed record data in flight. It is the
// bounded-memory spelling of Search: hits, their statistics and their
// order are bit-identical to Search over the same records — the paper's
// reduced-memory contract, where the database streams through the
// accelerator instead of residing in host memory. Besides the window,
// a scan holds only its running top-k hits, never per-record state.
//
// Batch negotiation works exactly as in Search: on engines that
// advertise the Batch capability, score-only single-hit scans group up
// to the negotiated batch of consecutive records per task. A group is
// admitted against the memory budget as a unit but never grows past
// half the per-worker budget share, so several groups stay in flight
// under the budget and the one-record overshoot contract is preserved.
// The first parse or scan error cancels the in-flight work and is
// returned.
func Stream(ctx context.Context, src seq.RecordSource, query []byte, opts StreamOptions, newEngine Factory) ([]Hit, error) {
	s, err := newScan(query, opts.Options, newEngine)
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("search: nil record source")
	}
	workers := s.opts.Workers

	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanSearch)
	span.SetInt("query_len", int64(len(query)))
	span.SetInt("workers", int64(workers))
	span.SetInt("streaming", 1)
	defer span.End()
	defer telemetry.StreamBufferBytes.Set(0)

	// A streamed group is admitted against the budget as one unit, so
	// cap its bytes at half a worker's budget share: groups stay small
	// enough that every worker can hold one while another is parsed.
	// The cap never splits a single record — the first record always
	// enters the group — preserving the one-record overshoot contract.
	var groupByteCap int64
	if opts.MaxMemoryBytes > 0 {
		groupByteCap = max(opts.MaxMemoryBytes/int64(2*workers), 1)
	}

	// The master parses each group, then hands it to a worker.
	records := 0
	hits, err := s.run(ctx, workers, feed{
		next: func(nctx context.Context) (task, int64, bool, error) {
			_, pspan := telemetry.StartSpan(nctx, telemetry.SpanSearchParse)
			defer pspan.End()
			var (
				recs        []seq.Sequence
				cost, bases int64
			)
			for len(recs) < s.batch {
				rec, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return task{}, 0, false, fmt.Errorf("search: %w", err)
				}
				recs = append(recs, rec)
				bases += int64(len(rec.Data))
				cost += int64(len(rec.Data)) + streamRecordOverhead
				if groupByteCap > 0 && cost >= groupByteCap {
					break
				}
			}
			if len(recs) == 0 {
				return task{}, 0, false, nil
			}
			pspan.SetInt("index", int64(records))
			pspan.SetInt("bases", bases)
			pspan.SetInt("records", int64(len(recs)))
			t := task{src: seq.SliceSource(recs), base: records, shard: -1}
			records += len(recs)
			return t, cost, true, nil
		},
		budget:   opts.MaxMemoryBytes,
		onWindow: func(bytes int64) { telemetry.StreamBufferBytes.Set(float64(bytes)) },
		onStall:  func(int64) { telemetry.StreamStalls.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	span.SetInt("records", int64(records))
	span.SetInt("hits", int64(len(hits)))
	return hits, nil
}
