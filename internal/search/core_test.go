package search

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"swfpga/internal/align"
	"swfpga/internal/engine"
	"swfpga/internal/evalue"
	"swfpga/internal/linear"
	"swfpga/internal/seq"
)

// funcSource adapts a function to seq.RecordSource.
type funcSource func() (seq.Sequence, error)

func (f funcSource) Next() (seq.Sequence, error) { return f() }

// liveHeap collects garbage and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStreamHitStateBounded streams records that all score through a
// top-5 scan and reads the live heap after 8192 records and again after
// 65536. Besides the byte-budgeted window, a scan may hold only its
// top-k hits, so the heap must not grow with the record count. The
// source generates its records, so the test holds none of them.
func TestStreamHitStateBounded(t *testing.T) {
	const (
		records = 65536
		first   = 8192
		recLen  = 64
	)
	g := seq.NewGenerator(951)
	query := g.Random(16)
	var heapFirst, heapLast uint64
	i := 0
	src := funcSource(func() (seq.Sequence, error) {
		switch i {
		case first:
			heapFirst = liveHeap()
		case records:
			heapLast = liveHeap()
			return seq.Sequence{}, io.EOF
		}
		i++
		return g.RandomSequence(fmt.Sprintf("r%05d", i), recLen), nil
	})
	hits, err := Stream(context.Background(), src, query,
		StreamOptions{Options: Options{MinScore: 1, TopK: 5, Workers: 2}, MaxMemoryBytes: 64 << 10},
		EngineFactory("swar", engine.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 {
		t.Fatalf("got %d hits, want 5", len(hits))
	}
	growth := int64(heapLast) - int64(heapFirst)
	t.Logf("live heap after %d records %d KiB, after %d records %d KiB: growth %d KiB",
		first, heapFirst>>10, records, heapLast>>10, growth>>10)
	if growth >= 1<<20 {
		t.Fatalf("live heap grew by %d KiB over %d records: scan state is not O(k)",
			growth>>10, records-first)
	}
}

// referenceScan is the scan the core must reproduce, written without
// it: every record in turn through the linear pipelines on the software
// scanner, then sorted by the documented order, cut to TopK and
// annotated.
func referenceScan(t *testing.T, db []seq.Sequence, query []byte, opts Options) []Hit {
	t.Helper()
	ctx := context.Background()
	sc := opts.Scoring
	if sc == (align.LinearScoring{}) {
		sc = align.DefaultLinear()
	}
	minScore := max(opts.MinScore, 1)
	var out []Hit
	for i, rec := range db {
		var rs []align.Result
		switch {
		case opts.PerRecord > 1:
			var err error
			rs, err = linear.NearBest(ctx, query, rec.Data, sc, opts.PerRecord, minScore, linear.ScanSoftware{})
			if err != nil {
				t.Fatal(err)
			}
			if !opts.Retrieve {
				for j := range rs {
					rs[j].Ops = nil
				}
			}
		case opts.Retrieve:
			r, _, err := linear.Local(ctx, query, rec.Data, sc, linear.ScanSoftware{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Score >= minScore {
				rs = append(rs, r)
			}
		default:
			ph, err := linear.LocalScoreOnly(ctx, query, rec.Data, sc, linear.ScanSoftware{})
			if err != nil {
				t.Fatal(err)
			}
			if ph.Score >= minScore {
				rs = append(rs, align.Result{Score: ph.Score,
					SStart: ph.EndI, SEnd: ph.EndI, TStart: ph.EndJ, TEnd: ph.EndJ})
			}
		}
		for _, r := range rs {
			out = append(out, Hit{RecordID: rec.ID, RecordIndex: i, Result: r})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for _, d := range []int{
			b.Result.Score - a.Result.Score,
			a.RecordIndex - b.RecordIndex,
			a.Result.TStart - b.Result.TStart,
			a.Result.SStart - b.Result.SStart,
			a.Result.TEnd - b.Result.TEnd,
			a.Result.SEnd - b.Result.SEnd,
		} {
			if d != 0 {
				return d < 0
			}
		}
		return false
	})
	if opts.TopK > 0 && len(out) > opts.TopK {
		out = out[:opts.TopK]
	}
	if opts.Stats != nil {
		for i := range out {
			n := len(db[out[i].RecordIndex].Data)
			out[i].EValue = opts.Stats.EValue(len(query), n, out[i].Result.Score)
			out[i].BitScore = opts.Stats.BitScore(out[i].Result.Score)
		}
	}
	return out
}

// FuzzScanPathsAgree holds every scan path to one answer: Search,
// Stream over the records, Stream over a shard index and SearchSharded,
// on the software and swar engines, must each return exactly the hits
// of referenceScan. The fuzz bytes choose the database (with planted
// query copies and duplicate records, so scores tie), the query, the
// options, the budget, the shard size and the worker count.
func FuzzScanPathsAgree(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{11, 24, 3, 5, 1, 0, 2, 1, 2, 40, 3, 7, 9})
	f.Add([]byte{39, 63, 1, 12, 2, 1, 3, 0, 1, 200, 0, 1, 2, 3})
	f.Add([]byte{20, 15, 8, 0, 0, 0, 1, 1, 2, 90, 2, 31, 77})
	f.Add([]byte{5, 31, 2, 7, 1, 1, 0, 0, 0, 17, 1, 3, 8, 250})
	batches := []int{0, 1, 3, 16}
	stats := &evalue.Params{Lambda: 0.35, K: 0.08}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nrec := 1 + next()%40
		m := 1 + next()%64
		opts := Options{
			MinScore:  1 + next()%(m+1),
			TopK:      next() % 13,
			PerRecord: 1 + next()%3,
			Retrieve:  next()%2 == 1,
			Batch:     batches[next()%len(batches)],
			Workers:   1 + next()%4,
		}
		if next()%2 == 1 {
			opts.Stats = stats
		}
		var budget int64
		switch next() % 3 {
		case 1:
			budget = int64(1 + next()%512)
		case 2:
			budget = 1 << 20
		}
		shardBytes := int64(16 + 16*next())
		// Most inputs draw short records, so the fuzzer stays fast; a
		// third draw them up to 2 KiB.
		maxLen := []int{64, 512, 2048}[next()%3]
		var seed int64
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		g := seq.NewGenerator(seed)
		query := g.Random(m)
		db := make([]seq.Sequence, nrec)
		for i := range db {
			id := fmt.Sprintf("r%02d", i)
			if i > 0 && rng.Intn(4) == 0 {
				// A duplicate of an earlier record: its hits tie on score.
				db[i] = seq.Sequence{ID: id, Data: append([]byte(nil), db[rng.Intn(i)].Data...)}
				continue
			}
			db[i] = g.RandomSequence(id, rng.Intn(maxLen+1))
			for c := rng.Intn(3); c > 0 && len(db[i].Data) >= m; c-- {
				seq.PlantMotif(db[i].Data, query, rng.Intn(len(db[i].Data)-m+1))
			}
		}
		want := referenceScan(t, db, query, opts)

		dir := t.TempDir()
		if _, err := seq.BuildIndex(context.Background(), seq.SliceSource(db), dir, "db",
			seq.IndexOptions{ShardPayloadBytes: shardBytes}); err != nil {
			t.Fatal(err)
		}
		idx, err := seq.OpenShardIndex(seq.ManifestPath(dir, "db"))
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()

		ctx := context.Background()
		for _, name := range []string{"software", "swar"} {
			factory := EngineFactory(name, engine.Config{})
			paths := []struct {
				path string
				run  func() ([]Hit, error)
			}{
				{"Search", func() ([]Hit, error) { return Search(ctx, db, query, opts, factory) }},
				{"Stream", func() ([]Hit, error) {
					return Stream(ctx, seq.SliceSource(db), query, StreamOptions{Options: opts, MaxMemoryBytes: budget}, factory)
				}},
				{"Stream(index)", func() ([]Hit, error) {
					return Stream(ctx, idx.Source(), query, StreamOptions{Options: opts, MaxMemoryBytes: budget}, factory)
				}},
				{"SearchSharded", func() ([]Hit, error) {
					return SearchSharded(ctx, idx, query, ShardedOptions{Options: opts}, factory)
				}},
			}
			for _, p := range paths {
				got, err := p.run()
				if err != nil {
					t.Fatalf("%s on %s: %v", p.path, name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s on %s (opts %+v, budget %d, %d shards) diverges from the reference:\n got %+v\nwant %+v",
						p.path, name, opts, budget, idx.Shards(), got, want)
				}
			}
		}
	})
}
