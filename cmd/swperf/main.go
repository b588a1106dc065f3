// Command swperf is the repository's benchmark. It generates every input
// from a seed, runs four workloads in one process, checks every answer
// against the software oracle, and prints each metric as
// "workload metric value unit". An untraced pass gives the end-to-end
// metrics; a traced pass, timing calls into the program's public seams
// from outside it, gives the per-layer metrics. See README.md.
//
//	swperf [-workload name] [-seed N] [-seconds S] [-trace 0|1] [-sets N] [-out run.json] [-trace-out trace.jsonl]
//	swperf -compare base.json cur.json
//
// With a single -workload, the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}, holding the
// end-to-end metrics with -trace 0 and the per-layer metrics with
// -trace 1 (medians over -sets).
//
// Exit status: 0 on success, 1 on errors, wrong answers or an invalid
// open loop, 2 when -compare finds a regression.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"swfpga/internal/cliutil"
	"swfpga/internal/seq"
	"swfpga/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupReps is how many times each workload is set up; setup_s is the
// median.
const setupReps = 7

// maxLagMS is the open-loop generator lateness (p99) above which a run
// is invalid: the load was not offered on schedule. On two busy vCPUs
// the p99 reads 5-13 ms, because the generator's timer waits while an
// align request computes for several ms without yielding; latency is
// timed from the due time, so that wait is charged to the server.
const maxLagMS = 25

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "all", "workload to run: "+strings.Join(allWorkloads, ", ")+" or all")
		seed      = fs.Int64("seed", 42, "seed every input is generated from")
		seconds   = fs.Float64("seconds", 20, "measured seconds per workload run")
		trace     = fs.Int("trace", 1, "1 adds the traced pass for the per-layer metrics, each pass taking half of -seconds; 0 runs untraced only")
		sets      = fs.Int("sets", 1, "run the selected workloads this many times and report how far the sets agree")
		scale     = fs.Float64("scale", 1, "multiply database sizes, align pair lengths and memory budgets by this")
		out       = fs.String("out", "", "write the JSON report here")
		traceOut  = fs.String("trace-out", "", "write the traced spans here, one JSON object per line")
		compareTo = fs.Bool("compare", false, "compare two reports: swperf -compare base.json cur.json")
		benchPath = fs.String("benchmark", "", "BENCHMARK.json holding the regression bounds (default: the nearest one in . or a parent)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "swperf:", err)
		return 1
	}
	if *compareTo {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two reports: base.json cur.json"))
		}
		return compareFiles(stdout, *benchPath, fs.Arg(0), fs.Arg(1), fail)
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *seconds <= 0 || *scale <= 0 || *sets < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("need -seconds > 0, -scale > 0, -sets >= 1 and -trace 0 or 1"))
	}
	var selected []workload
	for _, w := range workloads(*scale) {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fail(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(allWorkloads, ", ")))
	}
	var bounds *benchmarkFile
	if *sets > 1 {
		var err error
		if bounds, err = readBenchmark(*benchPath); err != nil {
			return fail(err)
		}
	}
	var spans *os.File
	if *traceOut != "" {
		var err error
		if spans, err = os.Create(*traceOut); err != nil {
			return fail(err)
		}
		defer func() { _ = spans.Close() }() // checked on the success path below
	}

	ctx, cancel := cliutil.SignalContext(context.Background())
	defer cancel()
	b := &bench{seed: *seed, seconds: *seconds, traced: *trace == 1, log: stderr}
	if spans != nil {
		b.spans = spans
	}
	rep := newReport(*seed, *seconds, *scale)
	for set := 0; set < *sets; set++ {
		for _, w := range selected {
			res, err := b.runWorkload(ctx, w)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			for _, n := range res.Metrics.sortedNames() {
				v := res.Metrics[n]
				fmt.Fprintf(stdout, "%s %s %.6g %s\n", w.name, n, v.Value, v.Unit)
			}
			if res.Invalid != "" {
				fmt.Fprintf(stderr, "swperf: %s: INVALID RUN: %s\n", w.name, res.Invalid)
			}
			rep.add(w, res)
		}
	}
	if spans != nil {
		if err := spans.Close(); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			return fail(err)
		}
	}
	if *sets > 1 {
		agreement(stdout, bounds, rep)
	}
	correct := true
	for _, wr := range rep.Workloads {
		for _, s := range wr.Sets {
			correct = correct && s.Failed == 0 && s.Invalid == ""
		}
	}
	if len(selected) == 1 {
		if err := printResult(stdout, rep.Workloads[selected[0].name], correct, b.traced); err != nil {
			return fail(err)
		}
	}
	if !correct {
		return 1
	}
	return 0
}

// bench holds the settings shared by every workload run.
type bench struct {
	seed    int64
	seconds float64
	traced  bool
	log     io.Writer
	spans   io.Writer
}

// runWorkload sets the workload up setupReps times, computes the oracle
// answers, warms up, then measures an untraced pass and, when tracing,
// a traced pass, each for half of the run.
func (b *bench) runWorkload(ctx context.Context, w workload) (res result, err error) {
	d := time.Duration(b.seconds * float64(time.Second))
	ctx, cancel := context.WithTimeout(ctx, 2*d+2*time.Minute)
	defer cancel()

	sys, setupS, err := b.setup(ctx, w)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := sys.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	res.Metrics = metricSet{}
	res.Attempted, res.Failed = sys.warm(ctx)
	if b.traced {
		d /= 2
	}
	untraced, err := sys.pass(ctx, d, nil)
	if err != nil {
		return res, err
	}
	res.Attempted += untraced.attempted()
	res.Failed += untraced.failed()
	endToEndMetrics(res.Metrics, untraced, setupS)
	if p99 := stats.Quantile(untraced.lag, 0.99); untraced.open && p99 > maxLagMS {
		res.Invalid = fmt.Sprintf("open-loop generator ran %.1f ms late at p99 (limit %d ms)", p99, maxLagMS)
	}
	if untraced.backlogGrew {
		res.Invalid = "the open-loop backlog was still growing at the end of the window"
	}
	if !b.traced {
		return res, nil
	}
	decodeMBps, isoGCUPS, err := sys.isolated(ctx)
	if err != nil {
		return res, err
	}
	tr := newTracer(w.name)
	traced, err := sys.pass(ctx, d, tr)
	if err != nil {
		return res, err
	}
	res.Attempted += traced.attempted()
	res.Failed += traced.failed()
	layerMetrics(res.Metrics, untraced, traced, decodeMBps, isoGCUPS)
	if b.spans != nil {
		err = tr.writeJSONL(b.spans)
	}
	return res, err
}

// setup builds the workload's system setupReps times (timed), keeps the
// last, and computes its oracle answers (untimed).
func (b *bench) setup(ctx context.Context, w workload) (system, float64, error) {
	if w.name == wServd {
		s, setupS, err := setupMedian(setupReps, func() (*servd, error) {
			in, err := buildServdInputs(w.p, b.seed)
			if err != nil {
				return nil, err
			}
			inst, err := startServd(ctx, in, w.p, w.p.Engine, nil, b.log)
			if err != nil {
				return nil, err
			}
			return &servd{p: w.p, seed: b.seed, in: in, inst: inst, log: b.log}, nil
		}, (*servd).close)
		if err != nil {
			return nil, 0, err
		}
		if err := s.in.prepare(ctx, w.p); err != nil {
			_ = s.close() // the oracle's error is the one to report
			return nil, 0, err
		}
		return s, setupS, nil
	}
	var db []seq.Sequence
	l, setupS, err := setupMedian(setupReps, func() (*library, error) {
		l, recs, err := setupLibrary(ctx, w, b.seed, b.log)
		db = recs
		return l, err
	}, (*library).close)
	if err != nil {
		return nil, 0, err
	}
	if err := l.prepare(ctx, db); err != nil {
		_ = l.close() // the oracle's error is the one to report
		return nil, 0, err
	}
	return l, setupS, nil
}

// printResult prints the one-line JSON result of a single workload:
// the medians over its sets of the end-to-end metrics (untraced) or of
// the per-layer metrics (traced).
func printResult(w io.Writer, wr *workloadReport, correct, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: correct, Metrics: map[string]value{}}
	for _, s := range wr.Sets {
		out.Attempted += s.Attempted
		out.Failed += s.Failed
	}
	for _, d := range defs {
		v, ok := wr.median(d.name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func compareFiles(w io.Writer, benchPath, basePath, curPath string, fail func(error) int) int {
	bench, err := readBenchmark(benchPath)
	if err != nil {
		return fail(err)
	}
	base, err := readReport(basePath)
	if err != nil {
		return fail(err)
	}
	cur, err := readReport(curPath)
	if err != nil {
		return fail(err)
	}
	if err := checkComparable(base, cur); err != nil {
		return fail(fmt.Errorf("reports are not comparable: %w", err))
	}
	fmt.Fprintf(w, "base %s (%s, GOMAXPROCS %d)  cur %s (%s, GOMAXPROCS %d)\n",
		base.Env.Commit, base.Env.GoVersion, base.Env.GOMAXPROCS, cur.Env.Commit, cur.Env.GoVersion, cur.Env.GOMAXPROCS)
	if compare(w, bench, base, cur) {
		return 2
	}
	return 0
}

// agreement prints, for every end-to-end metric, how far apart the sets
// of one run landed, as (max - min) / median, against the metric's
// bound.
func agreement(w io.Writer, bounds *benchmarkFile, rep *report) {
	for _, name := range allWorkloads {
		wr, ok := rep.Workloads[name]
		if !ok {
			continue
		}
		for _, m := range bounds.EndToEnd {
			var xs []float64
			for _, s := range wr.Sets {
				xs = append(xs, s.Metrics[m.Name].Value)
			}
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			med, _ := wr.median(m.Name)
			spread := (hi - lo) / med
			verdict := "agree"
			if spread > m.Bound {
				verdict = "DISAGREE"
			}
			fmt.Fprintf(w, "sets %-13s %-17s spread %6.2f%%  bound %5.1f%%  %s\n", name, m.Name, 100*spread, 100*m.Bound, verdict)
		}
	}
}
