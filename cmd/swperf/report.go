package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"

	"swfpga/internal/load"
	"swfpga/internal/stats"
	"swfpga/internal/telemetry"
)

// metricDef is one metric the benchmark reports. BENCHMARK.json must
// list the same names, units and directions (a test holds them equal).
type metricDef struct {
	name, unit, better string
	// on lists the workloads where a per-layer metric measures a layer
	// that runs there, so it must be non-zero; elsewhere it may read 0.
	on []string
}

const (
	wFASTA = "fasta_swar"
	wIndex = "index_swar"
	wLong  = "long_records"
	wServd = "servd_mixed"
)

var (
	allWorkloads = []string{wFASTA, wIndex, wLong, wServd}
	fastaSources = []string{wFASTA, wLong}
	laneGroups   = []string{wFASTA, wIndex, wServd}
	servdOnly    = []string{wServd}
)

// endToEnd are the metrics a user of the system sees, from the untraced
// pass; every one is measured, and non-zero, on every workload.
var endToEnd = []metricDef{
	{name: "throughput_gcups", unit: "GCUPS", better: "higher"},
	{name: "capacity_rps", unit: "req/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p90_ms", unit: "ms", better: "lower"},
	{name: "peak_heap_mib", unit: "MiB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer are the metrics of single layers, from the traced pass. A
// layer-specific time is reported as a share of the operation's wall
// time, so a workload that bypasses the layer reads 0 for it.
var perLayer = []metricDef{
	{name: "seq.isolated_decode_mbps", unit: "MB/s", better: "higher", on: allWorkloads},
	{name: "seq.decode_mbps", unit: "MB/s", better: "higher", on: fastaSources},
	{name: "seq.decode_share", unit: "ratio", better: "lower", on: fastaSources},
	{name: "sched.source_idle_share", unit: "ratio", better: "lower", on: fastaSources},
	{name: "sched.stalls_per_op", unit: "count", better: "lower", on: fastaSources},
	{name: "engine.busy_ms_per_op", unit: "ms", better: "lower", on: allWorkloads},
	{name: "engine.calls_per_op", unit: "count", better: "lower", on: allWorkloads},
	{name: "engine.cells_per_op", unit: "count", better: "lower", on: allWorkloads},
	{name: "engine.busy_gcups", unit: "GCUPS", better: "higher", on: allWorkloads},
	{name: "engine.utilization", unit: "ratio", better: "higher", on: allWorkloads},
	{name: "engine.isolated_gcups", unit: "GCUPS", better: "higher", on: allWorkloads},
	{name: "engine.span_ms_p50", unit: "ms", better: "lower", on: allWorkloads},
	{name: "swar.lane_fill", unit: "ratio", better: "higher", on: laneGroups},
	{name: "swar.scalar_share", unit: "ratio", better: "lower", on: []string{wLong}},
	{name: "search.head_ms_p50", unit: "ms", better: "lower", on: allWorkloads},
	{name: "search.tail_ms_p50", unit: "ms", better: "lower", on: allWorkloads},
	{name: "search.latency_p50_ms", unit: "ms", better: "lower", on: allWorkloads},
	{name: "search.pipeline_efficiency", unit: "ratio", better: "higher", on: allWorkloads},
	{name: "server.transport_share", unit: "ratio", better: "lower", on: servdOnly},
	{name: "server.slo_miss_ratio", unit: "ratio", better: "lower"},
	{name: "linear.retrieve_share", unit: "ratio", better: "lower", on: servdOnly},
	{name: "linear.align_to_search_p50", unit: "ratio", better: "lower", on: servdOnly},
	{name: "harness.trace_overhead", unit: "ratio", better: "lower", on: allWorkloads},
	{name: "harness.generator_lag_ms_p99", unit: "ms", better: "lower", on: allWorkloads},
	{name: "harness.latency_tail_ms", unit: "ms", better: "lower", on: allWorkloads},
	{name: "harness.latency_samples", unit: "count", better: "higher", on: allWorkloads},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}()

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds measurements by name; set fixes the unit from the
// metric tables and maps a non-finite value (an empty ratio) to 0.
type metricSet map[string]value

func (m metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	unit, ok := units[name]
	if !ok {
		panic("swperf: undefined metric " + name)
	}
	m[name] = value{Value: v, Unit: unit}
}

// result is one run of one workload.
type result struct {
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Invalid   string    `json:"invalid,omitempty"`
	Metrics   metricSet `json:"metrics"`
}

// report is what -out writes and -compare reads: every workload run,
// once per set, with what is needed to decide comparability.
type report struct {
	Schema    int                        `json:"schema"`
	Env       load.Env                   `json:"env"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Scale     float64                    `json:"scale"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Params params   `json:"params"`
	Sets   []result `json:"sets"`
}

const reportSchema = 1

func newReport(seed int64, seconds, scale float64) *report {
	return &report{
		Schema: reportSchema,
		Env: load.Env{
			Commit:     telemetry.BuildCommit(),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Seed: seed, Seconds: seconds, Scale: scale,
		Workloads: map[string]*workloadReport{},
	}
}

func (r *report) add(w workload, res result) {
	wr := r.Workloads[w.name]
	if wr == nil {
		wr = &workloadReport{Params: w.p}
		r.Workloads[w.name] = wr
	}
	wr.Sets = append(wr.Sets, res)
}

// median is the median of one metric over a workload's sets.
func (wr *workloadReport) median(name string) (float64, bool) {
	var xs []float64
	for _, s := range wr.Sets {
		if v, ok := s.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	if len(xs) == 0 {
		return 0, false
	}
	return stats.Quantile(xs, 0.5), true
}

func writeReport(path string, r *report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: report schema %d, want %d", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// benchmarkFile is the part of BENCHMARK.json the comparison applies.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// findBenchmark returns path, or with path empty the nearest
// BENCHMARK.json in the working directory or one of its parents.
func findBenchmark(path string) (string, error) {
	if path != "" {
		return path, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or its parents (use -benchmark)")
		}
		dir = parent
	}
}

func readBenchmark(path string) (*benchmarkFile, error) {
	path, err := findBenchmark(path)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// checkComparable refuses reports that did not measure the same thing.
func checkComparable(base, cur *report) error {
	switch {
	case base.Seed != cur.Seed:
		return fmt.Errorf("seeds differ (%d vs %d)", base.Seed, cur.Seed)
	case base.Seconds != cur.Seconds || base.Scale != cur.Scale:
		return fmt.Errorf("run shapes differ (%gs x%g vs %gs x%g)", base.Seconds, base.Scale, cur.Seconds, cur.Scale)
	case base.Env.GOMAXPROCS != cur.Env.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs (%d vs %d)", base.Env.GOMAXPROCS, cur.Env.GOMAXPROCS)
	}
	for name, b := range base.Workloads {
		if c, ok := cur.Workloads[name]; ok && !reflect.DeepEqual(b.Params, c.Params) {
			return fmt.Errorf("%s: workload parameters differ", name)
		}
	}
	return nil
}

// compare applies the end-to-end bounds of bench to the medians of two
// reports, prints one verdict per workload and metric, and reports
// whether any metric got worse by more than its bound.
func compare(w io.Writer, bench *benchmarkFile, base, cur *report) (regressed bool) {
	names := make([]string, 0, len(base.Workloads))
	for name := range base.Workloads {
		if _, ok := cur.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		for _, m := range bench.EndToEnd {
			b, okB := base.Workloads[name].median(m.Name)
			c, okC := cur.Workloads[name].median(m.Name)
			if !okB || !okC || b == 0 {
				continue
			}
			worse := (c - b) / b
			if m.Better == "higher" {
				worse = (b - c) / b
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "%-13s %-17s base %-12.6g cur %-12.6g worse %+7.2f%%  bound %5.1f%%  %s\n",
				name, m.Name, b, c, 100*worse, 100*m.Bound, verdict)
		}
	}
	return regressed
}
