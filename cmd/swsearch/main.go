// Command swsearch scans a query against every record of a FASTA
// database and ranks the hits — the paper's workload as a tool.
//
//	swsearch -query query.fa -db database.fa -k 10 -retrieve
//	swsearch -q ACGTACGT -db huge.fa -max-memory 64MiB
//	swsearch -q ACGTACGT -index idx/db.swidx
//	swsearch -q ACGTACGT -index idx/db.swidx -shard-workers 4
//	swsearch -q ACGTACGT -db database.fa -engine systolic -elements 100
//	swsearch -q ACGTACGT -db database.fa -engine cluster -boards 4 -fault-rate 0.05
//	swsearch -q ACGTACGT -db database.fa -engine systolic -batch 32
//	swsearch -q ACGTACGT -db database.fa -telemetry-addr :9090 -trace run.jsonl
//
// The scan backend is chosen by name from the internal/engine registry
// (-engine lists the registered names); "fpga" is accepted as a legacy
// alias for systolic. By default the database streams through a
// bounded-memory prefetch window (-max-memory sets the budget for
// records in flight); -stream=false, -retrieve and -translated load it
// in memory instead. -batch groups records per dispatch on every path.
// -index scans a packed shard index built by swindex instead of parsing
// FASTA: records stream straight off the mapped shards through the same
// bounded window, or — with -shard-workers — through the scatter-gather
// merge tier, whose hits are bit-identical to the flat scan.
// Interrupting the process (SIGINT/SIGTERM) or exceeding -timeout
// cancels the scan cleanly — a deadline reached mid-stream is an error,
// never a truncated hit list. -telemetry-addr serves /metrics,
// /debug/vars and /debug/pprof live; -trace writes a JSONL span trace
// and -manifest a run summary (see DESIGN.md §8).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"

	"swfpga/internal/align"
	"swfpga/internal/cliutil"
	"swfpga/internal/engine"
	"swfpga/internal/evalue"
	"swfpga/internal/protein"
	"swfpga/internal/search"
	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

func main() {
	var (
		qArg       = flag.String("q", "", "query sequence (inline)")
		qFile      = flag.String("query", "", "query FASTA file (first record)")
		dbFile     = flag.String("db", "", "database FASTA file (all records)")
		indexFile  = flag.String("index", "", "packed shard index manifest (.swidx, built by swindex) instead of -db")
		shardWk    = flag.Int("shard-workers", 0, "with -index: shards scanned concurrently by the merge tier (0 streams record by record)")
		topK       = flag.Int("k", 10, "hits to report (0 = all)")
		minScore   = flag.Int("min", 1, "minimum score")
		perRecord  = flag.Int("per-record", 1, "non-overlapping hits per record")
		retrieve   = flag.Bool("retrieve", false, "retrieve and print full alignments")
		workers    = flag.Int("workers", 0, "concurrent records (0 = GOMAXPROCS)")
		batch      = flag.Int("batch", 0, "records per dispatch on batch-capable engines (0 = the engine's preferred size, 1 = per record)")
		translated = flag.Bool("translated", false, "protein query vs DNA database (all six reading frames, BLOSUM62)")
		withEvalue = flag.Bool("evalue", false, "calibrate Karlin-Altschul statistics and report E-values")
		stream     = flag.Bool("stream", true, "stream the database in bounded memory (-retrieve and -translated load it in memory)")
		maxMem     = flag.String("max-memory", "256MiB", "streaming budget for parsed records in flight (e.g. 64MiB, 1GiB)")
		timeout    = flag.Duration("timeout", 0, "abort the search after this long (0 = no deadline)")
	)
	sel := cliutil.EngineFlags()
	tel := cliutil.TelemetryFlags()
	flag.Parse()

	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	if *timeout > 0 {
		// The deadline rides the same context as the interrupt: whichever
		// fires first cancels the scan mid-stream, and the search layer
		// reports it as an error — never as a truncated result.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, err := tel.Start(ctx, "swsearch")
	if err != nil {
		fatal(err)
	}

	if (*dbFile == "") == (*indexFile == "") {
		fatal(fmt.Errorf("need exactly one of -db and -index"))
	}
	if *indexFile != "" {
		// Retrieval prints record data and translation re-reads frames:
		// both need the FASTA records in memory, which an index scan
		// deliberately never holds.
		switch {
		case *translated:
			fatal(fmt.Errorf("-translated needs -db (an index holds packed DNA only)"))
		case *retrieve:
			fatal(fmt.Errorf("-retrieve needs -db (printing alignments needs the record data)"))
		}
	}
	if *translated {
		db, err := seq.ReadFASTAFile(*dbFile)
		if err != nil {
			fatal(err)
		}
		runTranslated(ctx, *qArg, *qFile, db, *topK, *minScore, *workers)
		if err := tel.Close(ctx); err != nil {
			fatal(err)
		}
		return
	}
	query, err := cliutil.LoadSequence(*qArg, *qFile, "query")
	if err != nil {
		fatal(err)
	}
	name, cfg := sel.Resolve()

	// Each worker gets its own engine instance (engines may be stateful —
	// a simulated board accumulates metrics — so they are never shared
	// between goroutines). The factory records every instance it builds
	// so per-engine fault reports can be merged after the search; it runs
	// inside the worker goroutines, so recording is mutex-guarded.
	base := search.EngineFactory(name, cfg)
	var (
		mu    sync.Mutex
		built []engine.Engine
	)
	factory := func() (engine.Engine, error) {
		e, err := base()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		built = append(built, e)
		mu.Unlock()
		return e, nil
	}

	opts := search.Options{
		MinScore:  *minScore,
		TopK:      *topK,
		PerRecord: *perRecord,
		Retrieve:  *retrieve,
		Workers:   *workers,
		Batch:     *batch,
	}
	if *withEvalue {
		params, err := evalue.CalibrateGapped(align.DefaultLinear(), len(query), 4096, 48, 1)
		if err != nil {
			fatal(err)
		}
		opts.Stats = &params
		fmt.Printf("statistics: lambda %.4f, K %.4f (gapped, calibrated by simulation)\n", params.Lambda, params.K)
	}

	// Default path: stream the database through a bounded prefetch
	// window instead of loading it. Alignment retrieval needs record
	// data for printing, so that path loads the database in memory.
	var (
		hits    []search.Hit
		db      []seq.Sequence
		records int
	)
	if *indexFile != "" {
		idx, err := seq.OpenShardIndex(*indexFile)
		if err != nil {
			fatal(err)
		}
		telemetry.IndexShards.Set(float64(idx.Shards()))
		telemetry.IndexRecords.Set(float64(idx.Records()))
		telemetry.IndexPayloadBytes.Set(float64(idx.PayloadBytes()))
		records = int(idx.Records())
		if *shardWk > 0 {
			// Scatter-gather merge tier: shards fan out across workers,
			// per-shard top-ks merge into the pinned global order.
			tel.Describe(fmt.Sprintf("%d BP query vs %d-shard index (merge tier)", len(query), idx.Shards()), name)
			hits, err = search.SearchSharded(ctx, idx, query,
				search.ShardedOptions{Options: opts, ShardWorkers: *shardWk}, factory)
		} else {
			// Default: the unchanged bounded-memory streaming pipeline,
			// fed records straight off the mapped shards with no parsing.
			budget, berr := cliutil.ParseBytes(*maxMem)
			if berr != nil {
				fatal(fmt.Errorf("-max-memory: %w", berr))
			}
			tel.Describe(fmt.Sprintf("%d BP query vs %d-shard index (budget %s)", len(query), idx.Shards(), *maxMem), name)
			hits, err = search.Stream(ctx, idx.Source(), query,
				search.StreamOptions{Options: opts, MaxMemoryBytes: budget}, factory)
		}
		if cerr := idx.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
	} else if *stream && !*retrieve {
		budget, err := cliutil.ParseBytes(*maxMem)
		if err != nil {
			fatal(fmt.Errorf("-max-memory: %w", err))
		}
		tel.Describe(fmt.Sprintf("%d BP query vs streamed database (budget %s)", len(query), *maxMem), name)
		f, err := os.Open(*dbFile)
		if err != nil {
			fatal(err)
		}
		src := &countingSource{src: seq.NewFASTASource(f)}
		hits, err = search.Stream(ctx, src, query,
			search.StreamOptions{Options: opts, MaxMemoryBytes: budget}, factory)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		records = src.n
	} else {
		db, err = seq.ReadFASTAFile(*dbFile)
		if err != nil {
			fatal(err)
		}
		tel.Describe(fmt.Sprintf("%d BP query vs %d records", len(query), len(db)), name)
		hits, err = search.Search(ctx, db, query, opts, factory)
		if err != nil {
			fatal(err)
		}
		records = len(db)
	}

	// Fault-capable engines expose their reports through capability
	// negotiation; merge across all worker instances.
	var agg engine.FaultReport
	faulty := false
	for _, e := range built {
		if f := engine.FaulterFor(e); f != nil {
			agg.Merge(f.TotalFaults())
			faulty = true
		}
	}
	if faulty {
		fmt.Printf("fault tolerance: %s\n\n", agg)
		tel.Note("fault tolerance: %s", agg)
	}

	fmt.Printf("%d hits for %d BP query against %d records\n\n", len(hits), len(query), records)
	fmt.Printf("%-4s %-20s %-7s %-18s %-12s %s\n", "#", "record", "score", "span (record)", "end (i,j)", "E-value / bits")
	for i, h := range hits {
		stats := ""
		if opts.Stats != nil {
			stats = fmt.Sprintf("%.2g / %.1f", h.EValue, h.BitScore)
		}
		fmt.Printf("%-4d %-20s %-7d [%d:%d)%*s (%d,%d)   %s\n",
			i+1, h.RecordID, h.Result.Score,
			h.Result.TStart, h.Result.TEnd,
			16-len(fmt.Sprintf("[%d:%d)", h.Result.TStart, h.Result.TEnd)), "",
			h.Result.SEnd, h.Result.TEnd, stats)
		if *retrieve && h.Result.Ops != nil {
			fmt.Printf("\n%s\n\n", h.Result.Format(query, db[h.RecordIndex].Data))
		}
	}
	if err := tel.Close(ctx); err != nil {
		fatal(err)
	}
}

// countingSource counts records as they stream past, so the summary
// line can report the database size without ever holding the database.
type countingSource struct {
	src seq.RecordSource
	n   int
}

func (c *countingSource) Next() (seq.Sequence, error) {
	rec, err := c.src.Next()
	if err == nil {
		c.n++
	}
	return rec, err
}

// runTranslated scans a protein query against the six reading frames of
// every DNA record.
func runTranslated(ctx context.Context, qArg, qFile string, db []seq.Sequence, topK, minScore, workers int) {
	var query []byte
	switch {
	case qArg != "":
		var err error
		query, err = protein.Normalize([]byte(qArg))
		if err != nil {
			fatal(err)
		}
	case qFile != "":
		recs, err := protein.ReadFASTAFile(qFile)
		if err != nil {
			fatal(err)
		}
		if len(recs) == 0 {
			fatal(fmt.Errorf("%s: no records", qFile))
		}
		query = recs[0].Residues
	default:
		fatal(fmt.Errorf("missing protein query"))
	}
	hits, err := search.TranslatedSearch(ctx, db, query, search.TranslatedOptions{
		MinScore: minScore, TopK: topK, Workers: workers,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d translated hits for %d-residue query against %d DNA records\n\n",
		len(hits), len(query), len(db))
	fmt.Printf("%-4s %-20s %-6s %-7s %s\n", "#", "record", "frame", "score", "fragment offset")
	for i, h := range hits {
		fmt.Printf("%-4d %-20s %-6d %-7d %d\n", i+1, h.RecordID, h.Frame, h.Score, h.FragmentOffset)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swsearch:", err)
	os.Exit(1)
}
