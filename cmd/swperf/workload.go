package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swfpga/internal/align"
	"swfpga/internal/engine"
	"swfpga/internal/load"
	"swfpga/internal/search"
	"swfpga/internal/seq"
	"swfpga/internal/stats"
	"swfpga/internal/telemetry"
)

// params are the inputs a workload is a function of, besides the seed.
// Two reports compare only when every workload's params match.
type params struct {
	Records           int     `json:"records"`
	RecordLen         int     `json:"record_len"`
	QueryLens         []int   `json:"query_lens"`
	QueriesPerLen     int     `json:"queries_per_len"`
	MinScore          int     `json:"min_score"`
	TopK              int     `json:"top_k"`
	Engine            string  `json:"engine"`
	Workers           int     `json:"workers"`
	MaxMemoryBytes    int64   `json:"max_memory_bytes,omitempty"`
	ShardPayloadBytes int64   `json:"shard_payload_bytes,omitempty"`
	RatePerSec        float64 `json:"rate_per_sec,omitempty"`
	AlignEvery        int     `json:"align_every,omitempty"`
	AlignPairs        int     `json:"align_pairs,omitempty"`
	AlignLen          int     `json:"align_len,omitempty"`
}

type workload struct {
	name string
	p    params
}

// workloads returns the benchmark's workloads, with database sizes,
// align pair lengths and memory budgets multiplied by scale. README.md
// says why each one is here.
func workloads(scale float64) []workload {
	n := func(v int) int { return max(1, int(math.Round(float64(v)*scale))) }
	base := params{
		QueryLens: []int{32, 64, 128}, QueriesPerLen: 2,
		MinScore: 12, TopK: 10, Engine: "swar", Workers: runtime.GOMAXPROCS(0),
	}
	fasta, index, long, servd := base, base, base, base
	fasta.Records, fasta.RecordLen, fasta.MaxMemoryBytes = n(2048), 1<<10, int64(n(1<<20))
	index.Records, index.RecordLen, index.ShardPayloadBytes = n(2048), 1<<10, int64(n(64<<10))
	// Each 256 KiB record is larger than a quarter of the budget, so the
	// stream admits it as a group of its own.
	long.Records, long.RecordLen, long.MaxMemoryBytes = 4, n(256<<10), int64(n(384<<10))
	servd.Records, servd.RecordLen = n(256), 1<<10
	servd.RatePerSec, servd.AlignEvery, servd.AlignPairs, servd.AlignLen = 40, 5, 4, n(1000)
	return []workload{{wFASTA, fasta}, {wIndex, index}, {wLong, long}, {wServd, servd}}
}

// Seed offsets for the inputs this package draws beyond load's.
const (
	seedAlignPairs = 10
	seedArrivals   = 11
)

// buildInputs generates the database and the queries, each query with a
// planted motif so every operation has a known strong hit.
func buildInputs(p params, seed int64) (*load.Workload, error) {
	return load.BuildWorkload(load.Scenario{
		Name: "swperf", Seed: seed,
		DBRecords: p.Records, RecordLen: p.RecordLen,
		QueryLens: p.QueryLens, QueriesPerLen: p.QueriesPerLen,
		Operations: 1, Concurrency: 1, Arrival: load.ArrivalClosed,
		Engine: p.Engine, MinScore: p.MinScore, TopK: p.TopK,
	})
}

func fastaText(db []seq.Sequence) ([]byte, error) {
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, 70, db...); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// oracle is the reference answer: the software engine, record by record.
func oracle(ctx context.Context, db []seq.Sequence, query []byte, opts search.Options) ([]search.Hit, error) {
	opts.Batch = 1
	return search.Search(ctx, db, query, opts, search.EngineFactory("software", engine.Config{}))
}

// opRecord is one operation as the client saw it.
type opRecord struct {
	kind            string // "search" or "align"
	due, start, end time.Time
	cells           int64
	ok              bool
	trace           *opTrace
}

func (o opRecord) latency() time.Duration { return o.end.Sub(o.due) }

// counters are the program's own counters a pass reads before and after.
type counters struct{ stalls, swarGroups, swarRecords int64 }

func readCounters() counters {
	return counters{
		stalls:      telemetry.StreamStalls.Value() + telemetry.ServerStalls.Value(),
		swarGroups:  telemetry.SwarGroups.Value(),
		swarRecords: telemetry.SwarRecords.Value(),
	}
}

// pass is one measured window of a workload.
type pass struct {
	// ops define the latency metrics, in issue order: every operation of
	// a closed loop, the open-loop requests of servd_mixed.
	ops []opRecord
	// closed are the closed-loop operations that define throughput, in
	// completion order, from a loop that began at closedStart.
	closed      []opRecord
	closedStart time.Time
	// all is every measured operation, for the per-layer metrics.
	all []opRecord
	// roundSize is how many consecutive operations make one round: a
	// whole number of passes over the workload's mix.
	roundSize int
	// lag is how late each operation was issued, in ms: after its due
	// time in an open loop, after the client's previous reply otherwise.
	lag         []float64
	open        bool
	backlogGrew bool
	wall        time.Duration
	peakHeap    uint64
	delta       counters
	// warmed and warmFailed count unmeasured operations run for the pass.
	warmed, warmFailed int
}

func (p *pass) attempted() int { return len(p.all) + p.warmed }

func (p *pass) failed() int {
	n := p.warmFailed
	for _, o := range p.all {
		if !o.ok {
			n++
		}
	}
	return n
}

// measure runs body as one pass: heap sampled every 5 ms from
// runtime/metrics (no stop-the-world), counters read around it.
func measure(body func(p *pass)) *pass {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	sampler := load.StartHeapSampler(5*time.Millisecond, func() (uint64, error) {
		metrics.Read(sample)
		return sample[0].Value.Uint64(), nil
	})
	c0 := readCounters()
	p := &pass{}
	t0 := time.Now()
	body(p)
	p.wall = time.Since(t0)
	c1 := readCounters()
	p.delta = counters{c1.stalls - c0.stalls, c1.swarGroups - c0.swarGroups, c1.swarRecords - c0.swarRecords}
	p.peakHeap, _ = sampler.Stop() // the read function never fails
	if p.all == nil {
		p.all = p.ops
	}
	return p
}

// rounds cuts ops into rounds of size consecutive operations, dropping
// an incomplete last round unless it is the only one.
func rounds(ops []opRecord, size int) [][]opRecord {
	var out [][]opRecord
	for lo := 0; lo+size <= len(ops); lo += size {
		out = append(out, ops[lo:lo+size])
	}
	if len(out) == 0 && len(ops) > 0 {
		out = append(out, ops)
	}
	return out
}

// bestLatency is the lowest round p50 and the lowest round p90 of op
// latency. A round is too short for the machine's load to change much
// within it, so the best round is the one least slowed by other work on
// the machine.
func bestLatency(ops []opRecord, size int) (p50, p90 float64) {
	p50, p90 = math.Inf(1), math.Inf(1)
	for _, r := range rounds(ops, size) {
		lat := latenciesMS(r, "")
		p50 = min(p50, stats.Quantile(lat, 0.5))
		p90 = min(p90, stats.Quantile(lat, 0.9))
	}
	return p50, p90
}

// bestThroughput is the highest round throughput of a closed loop, in
// cells per second of answered operations and in answered operations per
// second. ops are in completion order; a round runs from the previous
// round's last completion (the loop's start for the first) to its own.
func bestThroughput(ops []opRecord, start time.Time, size int) (gcups, rps float64) {
	prev := start
	for _, r := range rounds(ops, size) {
		end := r[len(r)-1].end
		var cells int64
		ok := 0
		for _, o := range r {
			if o.ok {
				cells += o.cells
				ok++
			}
		}
		sec := end.Sub(prev).Seconds()
		gcups = max(gcups, float64(cells)/sec/1e9)
		rps = max(rps, float64(ok)/sec)
		prev = end
	}
	return gcups, rps
}

// closedLoop runs clients that each issue the next operation as soon as
// their previous one returns, until d has passed. It returns when the
// loop began and the operations in completion order.
func closedLoop(ctx context.Context, clients int, d time.Duration, do func(ctx context.Context, i int) opRecord) (start time.Time, ops []opRecord, lag []float64) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start = time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := start
			for ctx.Err() == nil && time.Now().Before(deadline) {
				rec := do(ctx, int(next.Add(1)-1))
				mu.Lock()
				ops = append(ops, rec)
				lag = append(lag, ms(rec.start.Sub(prev)))
				mu.Unlock()
				prev = rec.end
			}
		}()
	}
	wg.Wait()
	return start, ops, lag
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// system is one workload, set up and ready to measure.
type system interface {
	// warm runs a few unmeasured operations.
	warm(ctx context.Context) (attempted, failed int)
	// pass measures for d; with tr set, every call into the program's
	// seams is timed.
	pass(ctx context.Context, d time.Duration, tr *tracer) (*pass, error)
	// isolated measures decode and the engine alone, on one goroutine.
	isolated(ctx context.Context) (decodeMBps, gcups float64, err error)
	close() error
}

// library is fasta_swar, index_swar or long_records: the scan pipeline
// called in-process by one closed-loop client.
type library struct {
	p       params
	log     io.Writer
	queries [][]byte
	text    []byte // the database as FASTA (fasta_swar, long_records)
	idx     *seq.ShardIndex
	idxDir  string
	oracle  [][]search.Hit
	cells   []int64
}

// setupLibrary is the timed set-up: inputs, and for index_swar the
// index build and open.
func setupLibrary(ctx context.Context, w workload, seed int64, log io.Writer) (*library, []seq.Sequence, error) {
	wl, err := buildInputs(w.p, seed)
	if err != nil {
		return nil, nil, err
	}
	text, err := fastaText(wl.DB)
	if err != nil {
		return nil, nil, err
	}
	l := &library{p: w.p, log: log, queries: wl.Queries, text: text}
	if w.p.ShardPayloadBytes > 0 {
		if err := l.buildIndex(ctx); err != nil {
			_ = l.close() // the build error is the one to report
			return nil, nil, err
		}
		l.text = nil
	}
	return l, wl.DB, nil
}

func (l *library) buildIndex(ctx context.Context) error {
	dir, err := os.MkdirTemp("", "swperf-index-")
	if err != nil {
		return err
	}
	l.idxDir = dir
	src := seq.NewFASTASource(bytes.NewReader(l.text))
	if _, err := seq.BuildIndex(ctx, src, dir, "db", seq.IndexOptions{ShardPayloadBytes: l.p.ShardPayloadBytes}); err != nil {
		return err
	}
	l.idx, err = seq.OpenShardIndex(seq.ManifestPath(dir, "db"))
	return err
}

func (l *library) close() error {
	var err error
	if l.idx != nil {
		err = l.idx.Close()
	}
	if l.idxDir != "" {
		if rerr := os.RemoveAll(l.idxDir); err == nil {
			err = rerr
		}
	}
	return err
}

// prepare computes the oracle answers, untimed.
func (l *library) prepare(ctx context.Context, db []seq.Sequence) error {
	var bases int64
	for _, r := range db {
		bases += int64(len(r.Data))
	}
	for _, q := range l.queries {
		hits, err := oracle(ctx, db, q, l.options())
		if err != nil {
			return err
		}
		l.oracle = append(l.oracle, hits)
		l.cells = append(l.cells, int64(len(q))*bases)
	}
	return nil
}

func (l *library) options() search.Options {
	return search.Options{MinScore: l.p.MinScore, TopK: l.p.TopK, Workers: l.p.Workers}
}

// op runs operation i: query i mod the query count, so every round
// cycles through the query mix.
func (l *library) op(ctx context.Context, i int, tr *tracer) opRecord {
	qi := i % len(l.queries)
	factory := search.EngineFactory(l.p.Engine, engine.Config{})
	var op *opTrace
	if tr != nil {
		op = tr.newOp()
		ctx = withOp(ctx, op)
		factory = tracedFactory(factory)
	}
	rec := opRecord{kind: "search", cells: l.cells[qi], trace: op}
	var (
		hits []search.Hit
		err  error
		src  *tracedSource
	)
	rec.start = time.Now()
	rec.due = rec.start
	if l.idx != nil {
		hits, err = search.SearchSharded(ctx, l.idx, l.queries[qi], search.ShardedOptions{Options: l.options()}, factory)
	} else {
		var s seq.RecordSource = seq.NewFASTASource(bytes.NewReader(l.text))
		if op != nil {
			src = &tracedSource{inner: s}
			s = src
		}
		hits, err = search.Stream(ctx, s, l.queries[qi],
			search.StreamOptions{Options: l.options(), MaxMemoryBytes: l.p.MaxMemoryBytes}, factory)
	}
	rec.end = time.Now()
	if op != nil {
		tr.record(op.id, op.id, 0, "op.search", rec.start, rec.end)
		if src != nil {
			src.fold(op)
		}
	}
	switch {
	case err != nil:
		fmt.Fprintf(l.log, "swperf: FAILED op %d (query %d): %v\n", i, qi, err)
	case !reflect.DeepEqual(hits, l.oracle[qi]):
		fmt.Fprintf(l.log, "swperf: WRONG ANSWER op %d (query %d): %d hits differ from the software oracle's %d\n",
			i, qi, len(hits), len(l.oracle[qi]))
	default:
		rec.ok = true
	}
	return rec
}

func (l *library) warm(ctx context.Context) (attempted, failed int) {
	for i := 0; i < 2; i++ {
		if !l.op(ctx, i, nil).ok {
			failed++
		}
	}
	return 2, failed
}

// pass runs one closed-loop client. A round is one pass over the query
// mix: with two queries of each length, its p50 is the middle length's
// latency and its p90 the longest's.
func (l *library) pass(ctx context.Context, d time.Duration, tr *tracer) (*pass, error) {
	return measure(func(p *pass) {
		p.closedStart, p.ops, p.lag = closedLoop(ctx, 1, d, func(ctx context.Context, i int) opRecord {
			return l.op(ctx, i, tr)
		})
		p.closed, p.roundSize = p.ops, len(l.queries)
	}), nil
}

func (l *library) isolated(ctx context.Context) (float64, float64, error) {
	open := func() seq.RecordSource {
		if l.idx != nil {
			return l.idx.Source()
		}
		return seq.NewFASTASource(bytes.NewReader(l.text))
	}
	return isolated(ctx, l.p, open, l.queries, groupSize(l.p))
}

// preferredBatch is the record-group size the named engine asks for:
// for swar, the records of one lane group.
func preferredBatch(name string) int {
	e, err := engine.New(name, engine.Config{})
	if err != nil {
		return 1 // every caller has already built this engine
	}
	return max(1, e.Capabilities().PreferredBatch)
}

// groupSize is how many records the pipeline hands the engine per call:
// its preferred batch, capped for a budgeted stream at half a worker's
// share of the budget.
func groupSize(p params) int {
	group := preferredBatch(p.Engine)
	if p.MaxMemoryBytes <= 0 {
		return group
	}
	capBytes := p.MaxMemoryBytes / int64(2*p.Workers)
	return int(min(int64(group), max(1, (capBytes+int64(p.RecordLen)-1)/int64(p.RecordLen))))
}

// isolated drains a fresh source on one goroutine five times (the median
// rate, in MB of bases per second), then scores one query of each length
// against the drained records with the engine alone, group records at a
// time, on one goroutine: the plain single-thread baseline.
func isolated(ctx context.Context, p params, open func() seq.RecordSource, queries [][]byte, group int) (decodeMBps, gcups float64, err error) {
	var recs [][]byte
	var rates []float64
	for i := 0; i < 5; i++ {
		src := open()
		recs = recs[:0]
		var bases int64
		t0 := time.Now()
		for {
			r, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, 0, err
			}
			recs = append(recs, r.Data)
			bases += int64(len(r.Data))
		}
		rates = append(rates, float64(bases)/time.Since(t0).Seconds()/1e6)
	}
	e, err := engine.New(p.Engine, engine.Config{})
	if err != nil {
		return 0, 0, err
	}
	b := engine.BatcherFor(e)
	sc := align.DefaultLinear()
	var cells int64
	t0 := time.Now()
	for qi := 0; qi < len(queries); qi += p.QueriesPerLen {
		q := queries[qi]
		for lo := 0; lo < len(recs); lo += group {
			grp := recs[lo:min(lo+group, len(recs))]
			for _, r := range grp {
				cells += int64(len(q)) * int64(len(r))
			}
			if b != nil {
				_, err = b.BatchScan(ctx, q, grp, sc)
			} else {
				for _, r := range grp {
					if _, _, _, err = e.BestLocal(ctx, q, r, sc); err != nil {
						break
					}
				}
			}
			if err != nil {
				return 0, 0, err
			}
		}
	}
	return stats.Quantile(rates, 0.5), float64(cells) / time.Since(t0).Seconds() / 1e9, nil
}

// setupMedian runs the timed set-up k times, tearing down all but the
// last, and returns the last with the median set-up time in seconds.
func setupMedian[T any](k int, build func() (T, error), teardown func(T) error) (T, float64, error) {
	var (
		sys   T
		times []float64
	)
	for i := 0; i < k; i++ {
		if i > 0 {
			if err := teardown(sys); err != nil {
				return sys, 0, err
			}
		}
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		s, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		sys = s
	}
	return sys, stats.Quantile(times, 0.5), nil
}

// latenciesMS returns the latencies of ops of the given kind ("" for
// all), in ms.
func latenciesMS(ops []opRecord, kind string) []float64 {
	var xs []float64
	for _, o := range ops {
		if kind == "" || o.kind == kind {
			xs = append(xs, ms(o.latency()))
		}
	}
	return xs
}

func p50(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// endToEndMetrics are the metrics a user sees, from an untraced pass:
// throughput and latency of the best round, peak heap and set-up time.
func endToEndMetrics(m metricSet, p *pass, setupS float64) {
	gcups, rps := bestThroughput(p.closed, p.closedStart, p.roundSize)
	lat50, lat90 := bestLatency(p.ops, p.roundSize)
	m.set("throughput_gcups", gcups)
	m.set("capacity_rps", rps)
	m.set("latency_p50_ms", lat50)
	m.set("latency_p90_ms", lat90)
	m.set("peak_heap_mib", float64(p.peakHeap)/(1<<20))
	m.set("setup_s", setupS)
}

// sloMS is the latency limit of servd_mixed's open loop, from the due
// time; a failed request misses it too.
const sloMS = 100

// layerMetrics are the per-layer metrics: the traced pass's wrapper
// totals, the isolated measurements, and the untraced pass's harness
// numbers.
func layerMetrics(m metricSet, untraced, traced *pass, decodeMBps, isoGCUPS float64) {
	workers := float64(runtime.GOMAXPROCS(0))
	var (
		heads, spans, tails         []float64
		decodeShares, idleShares    []float64
		transportShares, retrieveSh []float64
		busy, decode                time.Duration
		calls, cells, batchRecords  int64
		decodeBytes                 int64
	)
	for _, o := range traced.all {
		if o.trace == nil {
			continue
		}
		t := o.trace.totals()
		wall := o.end.Sub(o.start)
		entry, exit := o.start, o.end
		if !t.handlerStart.IsZero() {
			entry, exit = t.handlerStart, t.handlerEnd
			transportShares = append(transportShares, 1-t.handlerEnd.Sub(t.handlerStart).Seconds()/wall.Seconds())
		}
		if t.calls > 0 {
			heads = append(heads, ms(t.firstCall.Sub(entry)))
			spans = append(spans, ms(t.lastReturn.Sub(t.firstCall)))
			tails = append(tails, ms(exit.Sub(t.lastReturn)))
			if o.kind == "align" && !t.handlerStart.IsZero() {
				retrieveSh = append(retrieveSh, t.handlerEnd.Sub(t.lastReturn).Seconds()/exit.Sub(entry).Seconds())
			}
		}
		decodeShares = append(decodeShares, t.decode.Seconds()/wall.Seconds())
		idleShares = append(idleShares, t.idle.Seconds()/wall.Seconds())
		busy += t.busy
		decode += t.decode
		calls += t.calls
		cells += t.cells
		batchRecords += t.batchRecords
		decodeBytes += t.decodeBytes
	}
	ops := float64(len(traced.all))
	m.set("seq.isolated_decode_mbps", decodeMBps)
	m.set("seq.decode_mbps", float64(decodeBytes)/decode.Seconds()/1e6)
	m.set("seq.decode_share", p50(decodeShares))
	m.set("sched.source_idle_share", p50(idleShares))
	m.set("sched.stalls_per_op", float64(traced.delta.stalls)/ops)
	m.set("engine.busy_ms_per_op", ms(busy)/ops)
	m.set("engine.calls_per_op", float64(calls)/ops)
	m.set("engine.cells_per_op", float64(cells)/ops)
	m.set("engine.busy_gcups", float64(cells)/busy.Seconds()/1e9)
	m.set("engine.utilization", busy.Seconds()/(workers*traced.wall.Seconds()))
	m.set("engine.isolated_gcups", isoGCUPS)
	m.set("engine.span_ms_p50", p50(spans))
	lanes := int64(preferredBatch("swar")) * traced.delta.swarGroups
	m.set("swar.lane_fill", float64(traced.delta.swarRecords)/float64(lanes))
	m.set("swar.scalar_share", float64(batchRecords-traced.delta.swarRecords)/float64(batchRecords))
	m.set("search.head_ms_p50", p50(heads))
	m.set("search.tail_ms_p50", p50(tails))
	m.set("search.latency_p50_ms", p50(latenciesMS(untraced.ops, "search")))
	m.set("search.pipeline_efficiency", m["throughput_gcups"].Value/(isoGCUPS*workers))
	m.set("server.transport_share", p50(transportShares))
	m.set("linear.retrieve_share", p50(retrieveSh))
	alignP50 := p50(latenciesMS(untraced.ops, "align"))
	m.set("linear.align_to_search_p50", alignP50/m["search.latency_p50_ms"].Value)

	lat := latenciesMS(untraced.ops, "")
	slo := 0.0
	if untraced.open {
		for i, o := range untraced.ops {
			if !o.ok || lat[i] > sloMS {
				slo++
			}
		}
		slo /= float64(len(lat))
	}
	m.set("server.slo_miss_ratio", slo)
	tracedGCUPS, _ := bestThroughput(traced.closed, traced.closedStart, traced.roundSize)
	m.set("harness.trace_overhead", m["throughput_gcups"].Value/tracedGCUPS)
	m.set("harness.generator_lag_ms_p99", stats.Quantile(untraced.lag, 0.99))
	tailQ := 0.5
	if len(lat) >= 20 {
		tailQ = 1 - 10/float64(len(lat))
	}
	m.set("harness.latency_tail_ms", stats.Quantile(lat, tailQ))
	m.set("harness.latency_samples", float64(len(lat)))
}

// sortedNames returns the metric names of m in order.
func (m metricSet) sortedNames() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
