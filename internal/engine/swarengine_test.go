package engine

import (
	"context"
	"math/rand"
	"testing"

	"swfpga/internal/align"
	"swfpga/internal/telemetry"
)

func randBases(rng *rand.Rand, n int, alphabet string) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return b
}

// checkSwar asserts that BestLocal and BatchScan score every record
// exactly as align.LocalScore does, score and tie-broken end cell.
func checkSwar(t testing.TB, e *swarEngine, q []byte, recs [][]byte, sc align.LinearScoring) {
	t.Helper()
	ctx := context.Background()
	batch, err := e.BatchScan(ctx, q, recs, sc)
	if err != nil {
		t.Fatalf("BatchScan: %v", err)
	}
	for i, rec := range recs {
		score, endI, endJ := align.LocalScore(q, rec, sc)
		want := BatchResult{Score: score, EndI: endI, EndJ: endJ}
		gs, gi, gj, err := e.BestLocal(ctx, q, rec, sc)
		if err != nil {
			t.Fatalf("BestLocal: %v", err)
		}
		if got := (BatchResult{Score: gs, EndI: gi, EndJ: gj}); got != want {
			t.Fatalf("record %d (qlen %d, rlen %d, sc %+v): BestLocal %+v, oracle %+v",
				i, len(q), len(rec), sc, got, want)
		}
		if batch[i] != want {
			t.Fatalf("record %d (qlen %d, rlen %d, sc %+v): BatchScan %+v, oracle %+v",
				i, len(q), len(rec), sc, batch[i], want)
		}
	}
}

// spanOf is the overlap segmentation uses for a length-m query.
func spanOf(m int, sc align.LinearScoring) int {
	_, span, _ := segmentation(m, 1<<40, sc)
	return span
}

// threshold is the shortest record segmentation accepts.
func threshold(t testing.TB, m int, sc align.LinearScoring) int {
	t.Helper()
	n := 65*spanOf(m, sc) - 15 // ceil((n−span)/16) ≥ 4·span
	if _, _, ok := segmentation(m, n, sc); !ok {
		t.Fatalf("segmentation rejects %d bases for m=%d", n, m)
	}
	if _, _, ok := segmentation(m, n-1, sc); ok {
		t.Fatalf("segmentation accepts %d bases for m=%d", n-1, m)
	}
	return n
}

// TestSwarSegmentBoundaries plants query copies — exact ones, and ones
// spread by an inserted base after every query base, which stretches
// the alignment towards the overlap bound — so that they end on every
// segment start and segment end ±1, inside the overlap, and at the
// record's first and last bases.
func TestSwarSegmentBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sc := range []align.LinearScoring{
		align.DefaultLinear(),
		{Match: 5, Mismatch: -4, Gap: -3},
	} {
		q := randBases(rng, 24, "ACGT")
		spread := make([]byte, 0, 2*len(q))
		for _, b := range q {
			spread = append(spread, b, "ACGT"[rng.Intn(4)])
		}
		n := threshold(t, len(q), sc) + 500
		step, span, _ := segmentation(len(q), n, sc)
		ends := []int{len(spread), n}
		for k := 1; k < 16; k++ {
			for _, b := range []int{k * step, k*step + span} {
				ends = append(ends, b-1, b, b+1)
			}
			ends = append(ends, k*step+span/2)
		}
		e := &swarEngine{}
		for _, end := range ends {
			for _, motif := range [][]byte{q, spread} {
				rec := randBases(rng, n, "ACGT")
				copy(rec[end-len(motif):end], motif)
				checkSwar(t, e, q, [][]byte{rec}, sc)
			}
		}
	}
}

// TestSwarSegmentTies uses one- and two-letter alphabets, where whole
// diagonals tie and only the smallest-i-then-j rule picks the end cell,
// across segments as well as within one.
func TestSwarSegmentTies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := align.DefaultLinear()
	e := &swarEngine{}
	for _, alpha := range []string{"A", "AC"} {
		for _, m := range []int{1, 7, 30} {
			q := randBases(rng, m, alpha)
			n := threshold(t, m, sc) + rng.Intn(300)
			checkSwar(t, e, q, [][]byte{randBases(rng, n, alpha)}, sc)
		}
	}
}

// TestSwarSegmentThreshold scores records one base below and at the
// shortest segmented length: both exact, only the second in lanes.
func TestSwarSegmentThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sc := align.LinearScoring{Match: 2, Mismatch: -3, Gap: -2}
	q := randBases(rng, 40, "ACGT")
	n := threshold(t, len(q), sc)
	e := &swarEngine{}
	for _, tc := range []struct {
		n      int
		groups int64 // one lane group each for BatchScan and BestLocal
	}{{n - 1, 0}, {n, 2}} {
		rec := randBases(rng, tc.n, "ACGT")
		copy(rec[tc.n/2:], q)
		groups := telemetry.SwarGroups.Value()
		checkSwar(t, e, q, [][]byte{rec}, sc)
		if d := telemetry.SwarGroups.Value() - groups; d != tc.groups {
			t.Fatalf("%d bases: %d lane groups, want %d", tc.n, d, tc.groups)
		}
	}
}

// TestSwarGapZeroScalar: an unvalidated zero gap voids the overlap
// bound (and would divide by zero), so the record must scan scalar
// without touching the kernel cache.
func TestSwarGapZeroScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := align.LinearScoring{Match: 1, Mismatch: -1, Gap: 0}
	q := randBases(rng, 8, "ACGT")
	rec := randBases(rng, 1<<14, "ACGT")
	e := &swarEngine{}
	if _, _, _, err := e.BestLocal(context.Background(), q, rec, sc); err != nil {
		t.Fatal(err)
	}
	if e.k != nil {
		t.Fatal("BestLocal built a lane kernel for a scalar-only scoring")
	}
	checkSwar(t, e, q, [][]byte{rec}, sc)
}

// TestSwarSegmentSaturation drives both escapes inside one segmented
// record. Match=120 caps the 8-bit tier at 6, so every segment holding
// a match promotes to the 16-bit tier; the segment holding the perfect
// 300-base copy (score 36000 > 16-bit cap 32646) falls back to scalar.
// The gap stays within the 8-bit tier's limit of 127 (a larger one
// skips that tier, and nothing promotes), so span is 583 and the
// record needs 37880 bases to segment.
func TestSwarSegmentSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sc := align.LinearScoring{Match: 120, Mismatch: -1, Gap: -127}
	q := randBases(rng, 300, "ACGT")
	rec := randBases(rng, 40<<10, "ACGT")
	if _, _, ok := segmentation(len(q), len(rec), sc); !ok {
		t.Fatal("record too short to segment")
	}
	copy(rec[11000:], q)
	promos := telemetry.SwarPromotions.Value()
	falls := telemetry.SwarFallbacks.Value()
	checkSwar(t, &swarEngine{}, q, [][]byte{rec}, sc)
	if telemetry.SwarPromotions.Value() == promos {
		t.Error("no 16-bit promotions recorded")
	}
	if telemetry.SwarFallbacks.Value() == falls {
		t.Error("no scalar fallbacks recorded")
	}
}

// fuzzScorings spans the kernel's tiers: roomy 8-bit scorings, 8-bit
// caps of 6 and 1 (near-saturation Match), 16-bit only with a cap a
// 64-base query can overflow, and no tier at all.
var fuzzScorings = []align.LinearScoring{
	align.DefaultLinear(),
	{Match: 3, Mismatch: -2, Gap: -4},
	{Match: 1, Mismatch: -3, Gap: -1},
	{Match: 120, Mismatch: -1, Gap: -200},
	{Match: 126, Mismatch: 0, Gap: -127},
	{Match: 600, Mismatch: -1, Gap: -1000},
	{Match: 0x9000, Mismatch: -1, Gap: -2},
}

// FuzzSwarMatchesOracle holds BatchScan ≡ BestLocal ≡ align.LocalScore
// on 1–16 records, one of them long enough to segment, with a query
// copy planted near a segment boundary of the long record.
func FuzzSwarMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{31, 1, 3, 2, 5, 0, 200, 7, 1, 2, 3})
	f.Add([]byte{63, 3, 15, 3, 9, 4, 0, 255, 9})
	f.Add([]byte{50, 5, 1, 3, 0, 15, 130, 1})
	f.Add([]byte{7, 4, 2, 0, 1, 8, 128, 42})
	f.Add([]byte("\x0012")) // span 1: the step rounds up past the last segments
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		m := 1 + next()%64
		sc := fuzzScorings[next()%len(fuzzScorings)]
		nrec := 1 + next()%16
		alpha := "ACGT"[:1+next()%4]
		long := next() % nrec
		k, delta := next()%16, next()-128
		var seed int64
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		q := randBases(rng, m, alpha)

		n := min(65*spanOf(m, sc), 1<<14) + rng.Intn(2048)
		recs := make([][]byte, nrec)
		for i := range recs {
			if i == long {
				recs[i] = randBases(rng, n, alpha)
				continue
			}
			recs[i] = randBases(rng, rng.Intn(200), alpha)
			if len(recs[i]) > m && rng.Intn(2) == 0 {
				copy(recs[i][rng.Intn(len(recs[i])-m):], q)
			}
		}
		end := n - rng.Intn(m+1)
		if step, _, ok := segmentation(m, n, sc); ok {
			end = k*step + delta
		}
		if end >= m && end <= n {
			copy(recs[long][end-m:end], q)
		}
		checkSwar(t, &swarEngine{}, q, recs, sc)
	})
}

// BenchmarkSwarBestLocalLong is one 128-bp query against one 256 KiB
// record — the paper's shape — on the segmented lane path and on the
// scalar software engine. MB/s reads as million cells per second.
func BenchmarkSwarBestLocalLong(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	q := randBases(rng, 128, "ACGT")
	rec := randBases(rng, 256<<10, "ACGT")
	sc := align.DefaultLinear()
	for _, name := range []string{"swar", "software"} {
		b.Run(name, func(b *testing.B) {
			e, err := New(name, Config{})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.SetBytes(int64(len(q) * len(rec)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := e.BestLocal(ctx, q, rec, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
