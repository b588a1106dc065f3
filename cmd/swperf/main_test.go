package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"swfpga/internal/align"
	"swfpga/internal/engine"
)

// perturbedEngine is the swar engine with the best score of every batch
// raised by one: a kernel bug the oracle check must catch.
type perturbedEngine struct{ engine.Engine }

func (e perturbedEngine) BatchScan(ctx context.Context, query []byte, records [][]byte, sc align.LinearScoring) ([]engine.BatchResult, error) {
	res, err := engine.BatcherFor(e.Engine).BatchScan(ctx, query, records, sc)
	best := 0
	for i := range res {
		if res[i].Score > res[best].Score {
			best = i
		}
	}
	if len(res) > 0 {
		res[best].Score++
	}
	return res, err
}

func init() {
	engine.Register("swperf-perturbed", func(cfg engine.Config) (engine.Engine, error) {
		e, err := engine.New("swar", cfg)
		return perturbedEngine{e}, err
	})
}

// smallWorkloads are the workloads at -scale 0.02. servd_mixed's arrival
// rate is raised so its short open loop still sees align requests.
func smallWorkloads() []workload {
	ws := workloads(0.02)
	for i := range ws {
		if ws[i].name == wServd {
			ws[i].p.RatePerSec = 100
		}
	}
	return ws
}

var (
	tracedOnce    sync.Once
	tracedResults map[string]result
	tracedErr     error
)

// tracedRun runs every small workload once with the traced pass.
func tracedRun(t *testing.T) map[string]result {
	t.Helper()
	tracedOnce.Do(func() {
		b := &bench{seed: 42, seconds: 0.6, traced: true, log: io.Discard}
		tracedResults = map[string]result{}
		for _, w := range smallWorkloads() {
			res, err := b.runWorkload(context.Background(), w)
			if err != nil {
				tracedErr = err
				return
			}
			tracedResults[w.name] = res
		}
	})
	if tracedErr != nil {
		t.Fatal(tracedErr)
	}
	return tracedResults
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for name, res := range tracedRun(t) {
		if res.Failed != 0 || res.Invalid != "" || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, invalid %q", name, res.Attempted, res.Failed, res.Invalid)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			v, ok := res.Metrics[d.name]
			if !ok || v.Unit != d.unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", name, d.name, v, d.unit)
			}
		}
		for _, d := range endToEnd {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, res.Metrics[d.name].Value)
			}
		}
	}
}

// TestSingleWorkloadPrintsResultLine pins the one-line JSON result of a
// single-workload run: exactly the end-to-end metrics untraced.
func TestSingleWorkloadPrintsResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", wFASTA, "--seed", "3", "--seconds", "0.2", "--trace", "0", "-scale", "0.02"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}
}

func TestPerturbedEngineFails(t *testing.T) {
	w := smallWorkloads()[0]
	w.p.Engine = "swperf-perturbed"
	b := &bench{seed: 42, seconds: 0.2, log: io.Discard}
	res, err := b.runWorkload(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Errorf("a perturbed score went unnoticed: %d attempted, 0 failed", res.Attempted)
	}
}

func TestBenchmarkFileMatchesMetricTables(t *testing.T) {
	bf, err := readBenchmark("")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, want %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, want %s %s %s with a bound in (0, 0.25]", i, m, d.name, d.unit, d.better)
		}
	}
	for i, d := range perLayer {
		m := bf.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
}

func TestCompareAppliesBounds(t *testing.T) {
	dir := t.TempDir()
	w := smallWorkloads()[0]
	write := func(name string, seed int64, gcups float64) string {
		r := newReport(seed, 20, 1)
		m := metricSet{}
		for _, d := range endToEnd {
			m.set(d.name, 100)
		}
		m.set("throughput_gcups", gcups)
		r.add(w, result{Attempted: 1, Metrics: m})
		path := filepath.Join(dir, name)
		if err := writeReport(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 42, 2.0)
	for _, tc := range []struct {
		name string
		cur  string
		want int
	}{
		{"25% slower", write("slow.json", 42, 1.5), 2},
		{"3% slower", write("noise.json", 42, 1.94), 0},
		{"other seed", write("seed.json", 7, 2.0), 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-compare", base, tc.cur}, &stdout, &stderr); code != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.want, stdout.String(), stderr.String())
		}
	}
}

// TestTracedLayersAreNonZero checks that every per-layer metric is
// non-zero on each workload whose layers it measures, and that the
// README documents it.
func TestTracedLayersAreNonZero(t *testing.T) {
	results := tracedRun(t)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if !bytes.Contains(readme, []byte("`"+d.name+"`")) {
			t.Errorf("README.md does not document %s", d.name)
		}
		for _, name := range d.on {
			if v := results[name].Metrics[d.name].Value; v == 0 {
				t.Errorf("%s: %s is 0", name, d.name)
			}
		}
	}
}
