package search

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"swfpga/internal/align"
	"swfpga/internal/engine"
	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

// swarAllPaths runs the same scan through Search, Stream (budgeted and
// unbudgeted) and SearchSharded on the swar engine and asserts every
// path reproduces the software engine's flat scan bit for bit.
func swarAllPaths(t *testing.T, db []seq.Sequence, query []byte, opts Options) []Hit {
	t.Helper()
	want, err := Search(context.Background(), db, query, opts, nil)
	if err != nil {
		t.Fatalf("software Search: %v", err)
	}
	f := EngineFactory("swar", engine.Config{})
	got, err := Search(context.Background(), db, query, opts, f)
	if err != nil {
		t.Fatalf("swar Search: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("swar Search diverges from software:\n got %+v\nwant %+v", got, want)
	}
	for _, budget := range []int64{0, 2048} {
		got, err = Stream(context.Background(), seq.SliceSource(db), query,
			StreamOptions{Options: opts, MaxMemoryBytes: budget}, f)
		if err != nil {
			t.Fatalf("swar Stream (budget %d): %v", budget, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("swar Stream (budget %d) diverges from software:\n got %+v\nwant %+v",
				budget, got, want)
		}
	}
	idx := buildShardedDB(t, db, 512)
	got, err = SearchSharded(context.Background(), idx, query, ShardedOptions{Options: opts}, f)
	if err != nil {
		t.Fatalf("swar SearchSharded: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("swar SearchSharded diverges from software:\n got %+v\nwant %+v", got, want)
	}
	return want
}

// TestSwarMatchesSoftwareAllPaths holds the SWAR engine to the software
// oracle across the flat, streaming and sharded scan paths, over the
// batch option surface: auto-negotiated (Batch 0 → the kernel's
// GroupSize), forced per-record (1), and awkward explicit group sizes
// that leave partial lane groups.
func TestSwarMatchesSoftwareAllPaths(t *testing.T) {
	g := seq.NewGenerator(941)
	query := g.Random(48)
	db := makeDB(g, query, 13, 700, map[int]bool{0: true, 5: true, 9: true, 12: true})
	for _, batch := range []int{0, 1, 3, 5, 16, 40} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			hits := swarAllPaths(t, db, query, Options{MinScore: 20, Batch: batch, Workers: 3})
			if len(hits) == 0 {
				t.Fatal("no hits — comparison vacuous")
			}
		})
	}
	t.Run("topk", func(t *testing.T) {
		swarAllPaths(t, db, query, Options{MinScore: 10, TopK: 3})
	})
}

// TestSwarSaturationFallbackAllPaths forces both saturation escapes on
// real search paths. Match=120 shrinks the lane headroom: the 8-bit
// tier caps at score 6, so every scoring record promotes to the 16-bit
// tier, and a planted perfect 300-base copy (score 36000) overflows
// even that, forcing the per-lane scalar fallback. Hits must stay
// bit-identical to the software engine on every path, and the
// promotion/fallback counters must show the escapes actually fired.
func TestSwarSaturationFallbackAllPaths(t *testing.T) {
	g := seq.NewGenerator(942)
	sc := align.LinearScoring{Match: 120, Mismatch: -1, Gap: -2}
	query := g.Random(300)
	db := makeDB(g, query, 9, 600, nil)
	// Record 2 holds a perfect copy: score 300*120 overflows the 16-bit
	// tier (cap 32767-121). Record 6 holds a 60-base copy: score 7200
	// needs the 16-bit tier but fits it.
	seq.PlantMotif(db[2].Data, query, 150)
	seq.PlantMotif(db[6].Data, query[:60], 200)

	promos0 := telemetry.SwarPromotions.Value()
	falls0 := telemetry.SwarFallbacks.Value()
	hits := swarAllPaths(t, db, query, Options{Scoring: sc, MinScore: 1000})
	if len(hits) == 0 {
		t.Fatal("no hits — fallback comparison vacuous")
	}
	if hits[0].RecordIndex != 2 || hits[0].Result.Score < 32767 {
		t.Fatalf("top hit should be the overflowing record: %+v", hits[0])
	}
	if d := telemetry.SwarPromotions.Value() - promos0; d == 0 {
		t.Error("no 16-bit promotions recorded — saturation path not exercised")
	}
	if d := telemetry.SwarFallbacks.Value() - falls0; d == 0 {
		t.Error("no scalar fallbacks recorded — overflow path not exercised")
	}
}

// TestSwarLongRecordsAllPaths scans records long enough for the swar
// engine to cut each into overlapping segments of one lane group. The
// batched paths reach the segmentation through groups below four
// records (three records in all, and the 2048-byte stream budget cuts
// every group to one); Batch 1, PerRecord 2 and Retrieve reach it
// through BestLocal. Record 1's hit straddles the start of a segment.
func TestSwarLongRecordsAllPaths(t *testing.T) {
	g := seq.NewGenerator(943)
	query := g.Random(64)
	db := makeDB(g, query, 3, 40<<10, map[int]bool{0: true})
	// Default scoring: overlap span 64 + 63/2 = 95 bases, segment step
	// ceil((40960−95)/16) = 2555; segment 5 starts at 12775. The copy
	// ends 54 bases into segment 5, so only segment 4's overlap holds it
	// whole.
	seq.PlantMotif(db[1].Data, query, 5*2555-10)
	for name, opts := range map[string]Options{
		"batched":   {MinScore: 30},
		"batch=1":   {MinScore: 30, Batch: 1},
		"perrecord": {MinScore: 30, PerRecord: 2},
		"retrieve":  {MinScore: 30, Retrieve: true},
	} {
		t.Run(name, func(t *testing.T) {
			groups := telemetry.SwarGroups.Value()
			hits := swarAllPaths(t, db, query, opts)
			if len(hits) < 2 {
				t.Fatalf("want hits on both planted records, got %+v", hits)
			}
			if telemetry.SwarGroups.Value() == groups {
				t.Fatal("no lane groups scanned — segmentation not exercised")
			}
		})
	}
}

// TestShardedTopKDuplicateScores is the property test pinning the topK
// compaction (the 2k+64 cut in sharded.go) under heavy score ties that
// straddle shard boundaries: databases built from a small pool of
// duplicated records produce runs of identical scores, shards are cut
// small so those runs cross shard edges, and for every k the sharded
// merge must reproduce the flat scan exactly — a dropped tied hit or a
// reordered tie would diverge.
func TestShardedTopKDuplicateScores(t *testing.T) {
	for _, seed := range []int64{51, 52, 53, 54, 55} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := seq.NewGenerator(seed)
			query := g.Random(32)
			// A pool of 4 record patterns, two with planted copies, dealt
			// round-robin into 24 records: every score appears ~6 times,
			// spread across shards.
			pool := make([][]byte, 4)
			for p := range pool {
				rec := g.RandomSequence("p", 160)
				if p%2 == 0 {
					seq.PlantMotif(rec.Data, query[:16+8*p], 40)
				}
				pool[p] = rec.Data
			}
			db := make([]seq.Sequence, 24)
			for i := range db {
				db[i] = seq.Sequence{
					ID:   fmt.Sprintf("dup%02d", i),
					Data: append([]byte(nil), pool[i%len(pool)]...),
				}
			}
			idx := buildShardedDB(t, db, 128) // a few records per shard
			if idx.Shards() < 4 {
				t.Fatalf("want many shards for boundary ties, got %d", idx.Shards())
			}
			for _, k := range []int{0, 1, 2, 3, 5, 7, 11} {
				for _, name := range []string{"software", "swar"} {
					want, err := Search(context.Background(), db, query,
						Options{MinScore: 10, TopK: k}, EngineFactory(name, engine.Config{}))
					if err != nil {
						t.Fatal(err)
					}
					got, err := SearchSharded(context.Background(), idx, query,
						ShardedOptions{Options: Options{MinScore: 10, TopK: k}},
						EngineFactory(name, engine.Config{}))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s k=%d: sharded merge diverges under duplicate scores:\n got %+v\nwant %+v",
							name, k, got, want)
					}
				}
			}
		})
	}
}
