package linear

import (
	"context"
	"testing"

	"swfpga/internal/align"
	"swfpga/internal/seq"
)

func TestNearBestFindsPlantedCopies(t *testing.T) {
	// Three copies of a motif planted in disjoint database regions must
	// be reported as three non-overlapping alignments.
	g := seq.NewGenerator(61)
	motif := g.Random(30)
	s := make([]byte, 30)
	copy(s, motif)
	u := g.Random(1000)
	for _, pos := range []int{100, 450, 800} {
		seq.PlantMotif(u, motif, pos)
	}
	sc := align.DefaultLinear()
	hits, err := NearBest(context.Background(), s, u, sc, 3, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("got %d hits, want 3", len(hits))
	}
	found := map[int]bool{}
	for _, h := range hits {
		if err := h.Validate(s, u, sc); err != nil {
			t.Fatal(err)
		}
		for _, pos := range []int{100, 450, 800} {
			if h.TStart >= pos-5 && h.TStart <= pos+5 {
				found[pos] = true
			}
		}
	}
	if len(found) != 3 {
		t.Errorf("planted copies found at %v, want all of 100/450/800", found)
	}
}

func TestNearBestDescendingAndDisjoint(t *testing.T) {
	g := seq.NewGenerator(62)
	s := g.Random(60)
	u := g.Random(3000)
	sc := align.DefaultLinear()
	hits, err := NearBest(context.Background(), s, u, sc, 8, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Errorf("hits not in descending score order: %d then %d", hits[i-1].Score, hits[i].Score)
		}
	}
	for i := range hits {
		for j := i + 1; j < len(hits); j++ {
			a, b := hits[i], hits[j]
			if a.TStart < b.TEnd && b.TStart < a.TEnd {
				t.Errorf("hits %d and %d overlap in database: [%d,%d) vs [%d,%d)",
					i, j, a.TStart, a.TEnd, b.TStart, b.TEnd)
			}
		}
	}
}

func TestNearBestFirstHitIsGlobalBest(t *testing.T) {
	g := seq.NewGenerator(63)
	s := g.Random(40)
	u := g.Random(800)
	sc := align.DefaultLinear()
	hits, err := NearBest(context.Background(), s, u, sc, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := align.LocalScore(s, u, sc)
	if len(hits) == 0 || hits[0].Score != want {
		t.Fatalf("first hit score != global best %d: %+v", want, hits)
	}
}

func TestNearBestBoundsAndEmpty(t *testing.T) {
	sc := align.DefaultLinear()
	if hits, err := NearBest(context.Background(), []byte("ACGT"), []byte("ACGT"), sc, 0, 1, nil); err != nil || hits != nil {
		t.Errorf("k=0: %v %v", hits, err)
	}
	hits, err := NearBest(context.Background(), []byte("AAAA"), []byte("TTTT"), sc, 5, 1, nil)
	if err != nil || len(hits) != 0 {
		t.Errorf("hopeless input: %v %v", hits, err)
	}
	// minScore below 1 is clamped: zero-score alignments are never reported.
	hits, err = NearBest(context.Background(), []byte("AAAA"), []byte("TTTT"), sc, 5, -10, nil)
	if err != nil || len(hits) != 0 {
		t.Errorf("clamped minScore: %v %v", hits, err)
	}
}

// countingScanner is ScanSoftware that counts the scans it runs and the
// cells they cover.
type countingScanner struct {
	ScanSoftware
	local, anchored           int
	localCells, anchoredCells uint64
}

func (c *countingScanner) BestLocal(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
	c.local++
	c.localCells += uint64(len(s)) * uint64(len(t))
	return c.ScanSoftware.BestLocal(ctx, s, t, sc)
}

func (c *countingScanner) BestAnchored(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
	c.anchored++
	c.anchoredCells += uint64(len(s)) * uint64(len(t))
	return c.ScanSoftware.BestAnchored(ctx, s, t, sc)
}

// TestNearBestWork pins the scans NearBest runs: each window is scanned
// forward once, when it is pushed, and a popped window enters the
// pipeline at phase 2. Running Local on the popped window instead would
// scan it forward a second time (10 forward scans over 48119808 cells
// here, for the same hits).
func TestNearBestWork(t *testing.T) {
	g := seq.NewGenerator(7)
	motif := g.Random(128)
	u := g.Random(65536)
	sites := []int{8192, 32768, 57216}
	for _, pos := range sites {
		seq.PlantMotif(u, motif, pos)
	}
	c := &countingScanner{}
	hits, err := NearBest(context.Background(), motif, u, align.DefaultLinear(), 3, 12, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(sites) {
		t.Fatalf("got %d hits, want %d", len(hits), len(sites))
	}
	for i, h := range hits {
		want := align.Result{Score: 128, SEnd: 128, TStart: sites[i], TEnd: sites[i] + 128}
		if h.Score != want.Score || h.SStart != want.SStart || h.SEnd != want.SEnd ||
			h.TStart != want.TStart || h.TEnd != want.TEnd || align.CIGAR(h.Ops) != "128=" {
			t.Errorf("hit %d: %d s[%d:%d] t[%d:%d] %s, want %d s[0:128] t[%d:%d] 128=",
				i, h.Score, h.SStart, h.SEnd, h.TStart, h.TEnd, align.CIGAR(h.Ops),
				want.Score, want.TStart, want.TEnd)
		}
	}
	// One forward scan of the record and two per hit, of its flanks.
	if c.local != 7 || c.localCells != 28229632 {
		t.Errorf("forward scans: %d calls over %d cells, want 7 over 28229632", c.local, c.localCells)
	}
	if c.anchored != 3 || c.anchoredCells != 7340032 {
		t.Errorf("reverse scans: %d calls over %d cells, want 3 over 7340032", c.anchored, c.anchoredCells)
	}
}

func TestMemoryModel(t *testing.T) {
	// Sec. 2.3: two 100 KBP sequences need ~10 GB quadratically.
	q := QuadraticBytes(100_000, 100_000)
	if q < 74*1024*1024*1024 { // (1e5+1)^2 * 8 bytes ≈ 74.5 GiB of Go ints
		t.Errorf("quadratic estimate %d too small", q)
	}
	l := LinearBytes(100_000, 100_000)
	if l > 2*1024*1024 {
		t.Errorf("linear estimate %s should be under 2 MB", FormatBytes(l))
	}
	if h := HirschbergBytes(1000, 1000); h >= QuadraticBytes(1000, 1000) {
		t.Errorf("hirschberg bytes %d not below quadratic %d", h, QuadraticBytes(1000, 1000))
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   uint64
		want string
	}{
		{512, "512 B"},
		{2048, "2.0 KB"},
		{10 * 1024 * 1024 * 1024, "10.0 GB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}
