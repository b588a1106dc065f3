package load

import (
	"fmt"
	"sort"
	"time"
)

// Arrival selects the request arrival model.
type Arrival string

const (
	// ArrivalClosed is the closed-loop model: Concurrency workers each
	// execute their pre-assigned slice of the operation list back to
	// back, so offered load tracks service capacity (the classic
	// benchmark loop). Issue order is fully deterministic.
	ArrivalClosed Arrival = "closed"
	// ArrivalOpen is the open-loop model: operations are issued at
	// seeded exponential inter-arrival times regardless of completions,
	// so a slow server accumulates concurrent requests — the model that
	// exercises admission control and shedding.
	ArrivalOpen Arrival = "open"
)

// Scenario is one named, fully deterministic load shape. Every field
// participates in report comparability (two reports are comparable only
// if their scenarios match), and everything random about the run —
// database, query mix, per-op query choice — derives from Seed.
type Scenario struct {
	// Name identifies the scenario; the report file is BENCH_<Name>.json.
	Name string `json:"name"`
	// Seed feeds every PRNG in the scenario.
	Seed int64 `json:"seed"`

	// DBRecords and RecordLen shape the synthetic database.
	DBRecords int `json:"db_records"`
	// RecordLen is the length of every database record, in bases.
	RecordLen int `json:"record_len"`

	// QueryLens lists the query lengths of the mix; QueriesPerLen
	// queries are generated per length. Each query carries a planted
	// motif in the database, so every operation has a guaranteed strong
	// hit and total hit counts are a deterministic scenario property.
	QueryLens     []int `json:"query_lens"`
	QueriesPerLen int   `json:"queries_per_len"`

	// Operations is the measured run length; Warmup operations are
	// executed (and discarded) before the measured window opens, so
	// lazy initialization and cold caches do not pollute op 0.
	Operations int `json:"operations"`
	Warmup     int `json:"warmup"`
	// Concurrency is the closed-loop worker count (ignored by the open
	// model, whose concurrency is emergent).
	Concurrency int `json:"concurrency"`
	// Arrival selects the arrival model.
	Arrival Arrival `json:"arrival"`
	// RatePerSec is the open-loop mean arrival rate (required > 0 when
	// Arrival is open).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`

	// Engine names the registry backend; MinScore/TopK mirror
	// search.Options. ScanWorkers is the per-operation record
	// concurrency of the library target (the HTTP target's daemon
	// configures its own).
	Engine      string `json:"engine"`
	MinScore    int    `json:"min_score"`
	TopK        int    `json:"top_k"`
	ScanWorkers int    `json:"scan_workers,omitempty"`

	// Stream selects search.Stream (bounded-memory pipeline) over
	// search.Search for the library target; MaxMemoryBytes is its
	// prefetch budget.
	Stream         bool  `json:"stream,omitempty"`
	MaxMemoryBytes int64 `json:"max_memory_bytes,omitempty"`

	// Indexed compiles the scenario database into a packed shard index
	// once at target build and drives every operation through the
	// scatter-gather merge tier (search.SearchSharded) — the parse-free
	// scan path. ShardPayloadBytes is the per-shard packed target
	// (0 = the builder default) and ShardWorkers the per-operation shard
	// concurrency.
	Indexed           bool  `json:"indexed,omitempty"`
	ShardPayloadBytes int64 `json:"shard_payload_bytes,omitempty"`
	ShardWorkers      int   `json:"shard_workers,omitempty"`

	// SlowOp injects an artificial per-operation delay. It exists for
	// the regression-gate tests (inflate latency, watch -compare fail)
	// and is deliberately excluded from the comparability check, so a
	// slowed run still compares — and fails — against its clean
	// baseline.
	SlowOp time.Duration `json:"slow_op,omitempty"`
}

// Validate rejects shapes the runner cannot execute deterministically.
func (sc Scenario) Validate() error {
	switch {
	case sc.Name == "":
		return fmt.Errorf("load: scenario needs a name")
	case sc.DBRecords <= 0 || sc.RecordLen <= 0:
		return fmt.Errorf("load: %s: database shape %dx%d must be positive", sc.Name, sc.DBRecords, sc.RecordLen)
	case len(sc.QueryLens) == 0 || sc.QueriesPerLen <= 0:
		return fmt.Errorf("load: %s: empty query mix", sc.Name)
	case sc.Operations <= 0:
		return fmt.Errorf("load: %s: operations must be positive", sc.Name)
	case sc.Warmup < 0:
		return fmt.Errorf("load: %s: negative warmup", sc.Name)
	case sc.Arrival != ArrivalClosed && sc.Arrival != ArrivalOpen:
		return fmt.Errorf("load: %s: unknown arrival model %q", sc.Name, sc.Arrival)
	case sc.Arrival == ArrivalClosed && sc.Concurrency <= 0:
		return fmt.Errorf("load: %s: closed loop needs concurrency > 0", sc.Name)
	case sc.Arrival == ArrivalOpen && sc.RatePerSec <= 0:
		return fmt.Errorf("load: %s: open loop needs rate_per_sec > 0", sc.Name)
	case sc.SlowOp < 0:
		return fmt.Errorf("load: %s: negative slow_op", sc.Name)
	case sc.ShardPayloadBytes < 0 || sc.ShardWorkers < 0:
		return fmt.Errorf("load: %s: negative shard shape", sc.Name)
	case sc.Indexed && sc.Stream:
		return fmt.Errorf("load: %s: indexed scans stream off the shards already — pick one of indexed and stream", sc.Name)
	case !sc.Indexed && (sc.ShardPayloadBytes != 0 || sc.ShardWorkers != 0):
		return fmt.Errorf("load: %s: shard shape set without indexed", sc.Name)
	}
	for _, l := range sc.QueryLens {
		if l <= 0 {
			return fmt.Errorf("load: %s: query length %d must be positive", sc.Name, l)
		}
		if motifLen(l) > sc.RecordLen {
			return fmt.Errorf("load: %s: query length %d does not fit a motif in %d-base records", sc.Name, l, sc.RecordLen)
		}
	}
	return nil
}

// DBBases is the total database size in bases.
func (sc Scenario) DBBases() int64 {
	return int64(sc.DBRecords) * int64(sc.RecordLen)
}

// scenarios is the committed registry: the shapes whose BENCH_*.json
// baselines live in baselines/ and gate make load-smoke. Sizes are
// chosen so both run in a couple of seconds on a laptop and well under
// a minute on a loaded CI runner.
var scenarios = map[string]Scenario{
	// scan_stream drives the bounded-memory streaming pipeline
	// (search.Stream) in-process: four concurrent streams over a 256 KiB
	// database with a prefetch budget small enough to force producer
	// stalls, so the run exercises the paper's reduced-memory path, not
	// just the scan kernel.
	"scan_stream": {
		Name:           "scan_stream",
		Seed:           42,
		DBRecords:      16,
		RecordLen:      16 << 10,
		QueryLens:      []int{64, 96, 128},
		QueriesPerLen:  2,
		Operations:     24,
		Warmup:         2,
		Concurrency:    4,
		Arrival:        ArrivalClosed,
		Engine:         "software",
		MinScore:       30,
		TopK:           5,
		ScanWorkers:    2,
		Stream:         true,
		MaxMemoryBytes: 64 << 10,
	},
	// scan_swar is scan_stream's 256 KiB database and query mix on the
	// SWAR lane engine, re-cut into 256 x 1 KiB records so the same
	// 64 KiB prefetch budget still admits full 16-record lane groups
	// (scan_stream's 16 KiB records cap a budgeted group at one record,
	// which the engine can only fill with that record's own segments).
	// Held next to BENCH_scan_stream.json it is the committed record of
	// the software tier's SWAR speedup — a throughput regression here
	// means the lane kernel (or the batch plumbing above it) got slower.
	"scan_swar": {
		Name:           "scan_swar",
		Seed:           42,
		DBRecords:      256,
		RecordLen:      1 << 10,
		QueryLens:      []int{64, 96, 128},
		QueriesPerLen:  2,
		Operations:     24,
		Warmup:         2,
		Concurrency:    4,
		Arrival:        ArrivalClosed,
		Engine:         "swar",
		MinScore:       30,
		TopK:           5,
		ScanWorkers:    2,
		Stream:         true,
		MaxMemoryBytes: 64 << 10,
	},
	// scan_indexed is scan_stream's database and query mix driven through
	// the packed shard index instead of FASTA parsing: the target
	// compiles the database once, then every operation scatter-gathers
	// the mapped shards. Held next to BENCH_scan_stream.json it measures
	// the parse-phase elimination on an identical workload.
	"scan_indexed": {
		Name:              "scan_indexed",
		Seed:              42,
		DBRecords:         16,
		RecordLen:         16 << 10,
		QueryLens:         []int{64, 96, 128},
		QueriesPerLen:     2,
		Operations:        24,
		Warmup:            2,
		Concurrency:       4,
		Arrival:           ArrivalClosed,
		Engine:            "software",
		MinScore:          30,
		TopK:              5,
		ScanWorkers:       2,
		Indexed:           true,
		ShardPayloadBytes: 16 << 10,
		ShardWorkers:      2,
	},
	// servd_closed drives a live swservd over HTTP in a closed loop
	// sized under the daemon's admission capacity, so shed and degraded
	// counts are exactly zero — any nonzero value is a regression, not
	// noise.
	"servd_closed": {
		Name:          "servd_closed",
		Seed:          7,
		DBRecords:     12,
		RecordLen:     8 << 10,
		QueryLens:     []int{48, 64},
		QueriesPerLen: 2,
		Operations:    32,
		Warmup:        4,
		Concurrency:   4,
		Arrival:       ArrivalClosed,
		Engine:        "software",
		MinScore:      24,
		TopK:          3,
	},
}

// Scenarios returns the committed scenarios sorted by name.
func Scenarios() []Scenario {
	out := make([]Scenario, 0, len(scenarios))
	for _, sc := range scenarios {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ScenarioByName looks up a committed scenario.
func ScenarioByName(name string) (Scenario, bool) {
	sc, ok := scenarios[name]
	return sc, ok
}
