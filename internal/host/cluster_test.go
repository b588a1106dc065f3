package host

import (
	"context"
	"math/rand"
	"testing"

	"swfpga/internal/align"
	"swfpga/internal/linear"
	"swfpga/internal/seq"
)

func TestClusterMatchesSingleScan(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	sc := align.DefaultLinear()
	for trial := 0; trial < 30; trial++ {
		q := randDNA(rng, 1+rng.Intn(60))
		db := randDNA(rng, 1+rng.Intn(400))
		for _, boards := range []int{1, 2, 3, 5} {
			c := NewCluster(boards)
			score, i, j, err := c.BestLocal(context.Background(), q, db, sc)
			if err != nil {
				t.Fatal(err)
			}
			wantScore, wantI, wantJ := align.LocalScore(q, db, sc)
			if score != wantScore || i != wantI || j != wantJ {
				t.Fatalf("cluster(%d) %d (%d,%d) != single %d (%d,%d) for %s / %d BP db",
					boards, score, i, j, wantScore, wantI, wantJ, q, len(db))
			}
		}
	}
}

func TestClusterBoundaryStraddlingAlignment(t *testing.T) {
	// Plant the best alignment exactly across a chunk boundary: with 2
	// boards over a 1000 BP database the boundary is at 500.
	g := seq.NewGenerator(802)
	q := g.Random(60)
	db := g.Random(1000)
	seq.PlantMotif(db, q, 470) // spans [470, 530), straddling 500
	sc := align.DefaultLinear()
	c := NewCluster(2)
	score, i, j, err := c.BestLocal(context.Background(), q, db, sc)
	if err != nil {
		t.Fatal(err)
	}
	wantScore, wantI, wantJ := align.LocalScore(q, db, sc)
	if score != wantScore || i != wantI || j != wantJ {
		t.Fatalf("straddling alignment: cluster %d (%d,%d) != single %d (%d,%d)",
			score, i, j, wantScore, wantI, wantJ)
	}
	if score < 55 {
		t.Fatalf("planted motif not found: score %d", score)
	}
	if j < 500 || j > 540 {
		t.Fatalf("end coordinate %d not at the planted site", j)
	}
}

func TestClusterDistributesWork(t *testing.T) {
	g := seq.NewGenerator(803)
	q := g.Random(50)
	db := g.Random(2000)
	c := NewCluster(4)
	if _, _, _, err := c.BestLocal(context.Background(), q, db, align.DefaultLinear()); err != nil {
		t.Fatal(err)
	}
	// Dispatch is a work queue, not a static 1:1 assignment, so a fast
	// board may take more than one chunk; the scan totals must still be
	// exactly one call per chunk across the cluster.
	totalCalls := 0
	for _, d := range c.Devices {
		totalCalls += d.Metrics.Calls
	}
	if totalCalls != 4 {
		t.Errorf("cluster ran %d scans for 4 chunks", totalCalls)
	}
	// Overlap means slightly more than m*n total cells, but bounded.
	mn := uint64(len(q)) * uint64(len(db))
	total := c.TotalCells()
	if total < mn {
		t.Errorf("total cells %d below matrix size %d", total, mn)
	}
	span, err := maxSpan(len(q), align.DefaultLinear())
	if err != nil {
		t.Fatal(err)
	}
	overlapBound := mn + uint64(4*span*len(q))
	if total > overlapBound {
		t.Errorf("total cells %d exceed overlap bound %d", total, overlapBound)
	}
}

func TestClusterPipelineEndToEnd(t *testing.T) {
	// The distribution pays off in the paper's workload shape: a short
	// query against a long database (chunk + overlap far below the whole
	// database length).
	g := seq.NewGenerator(804)
	a := g.Random(300)
	b := g.Random(20_000)
	mut, err := g.Mutate(a, seq.DefaultMutationProfile())
	if err != nil {
		t.Fatal(err)
	}
	seq.PlantMotif(b, mut[:280], 9_000)
	sc := align.DefaultLinear()
	c := NewCluster(3)
	rep, err := c.Pipeline(context.Background(), a, b, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Result.Validate(a, b, sc); err != nil {
		t.Fatal(err)
	}
	want, _, err := linear.Local(context.Background(), a, b, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Score != want.Score || rep.Result.SStart != want.SStart ||
		rep.Result.TStart != want.TStart || rep.Result.TEnd != want.TEnd {
		t.Fatalf("cluster pipeline %+v != software %+v", rep.Result, want)
	}
	if rep.ScanSeconds <= 0 || rep.ReverseSeconds <= 0 || rep.HostSeconds <= 0 {
		t.Errorf("timing breakdown incomplete: %+v", rep)
	}
	// Distribution should cut the modeled forward-scan wall time versus a
	// single board covering the whole database.
	single := NewCluster(1)
	srep, err := single.Pipeline(context.Background(), a, b, sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScanSeconds >= srep.ScanSeconds {
		t.Errorf("3-board scan %.6f s not faster than single-board %.6f s",
			rep.ScanSeconds, srep.ScanSeconds)
	}
	// Phases are logical: the chunk overlap shows in TotalCells only.
	drep, err := Pipeline(context.Background(), NewDevice(), a, b, sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases != drep.Phases {
		t.Errorf("cluster phases %+v != single-device phases %+v", rep.Phases, drep.Phases)
	}
}

func TestClusterPipelineHopeless(t *testing.T) {
	c := NewCluster(2)
	rep, err := c.Pipeline(context.Background(), []byte("AAAA"), []byte("TTTT"), align.DefaultLinear())
	if err != nil || rep.Result.Score != 0 {
		t.Errorf("hopeless: %+v %v", rep, err)
	}
}

func TestClusterValidation(t *testing.T) {
	c := &Cluster{}
	if _, _, _, err := c.BestLocal(context.Background(), []byte("A"), []byte("A"), align.DefaultLinear()); err == nil {
		t.Error("empty cluster must be rejected")
	}
	c = NewCluster(2)
	c.Devices[1].Array.Elements = 0
	if err := c.Validate(); err == nil {
		t.Error("invalid member device must be rejected")
	}
}

func TestClusterErrorPropagation(t *testing.T) {
	g := seq.NewGenerator(805)
	q := g.Random(200)
	c := NewCluster(2)
	for _, d := range c.Devices {
		d.Array.ScoreBits = 4 // saturates on self-similarity
	}
	db := append(append([]byte{}, g.Random(300)...), q...)
	if _, _, _, err := c.BestLocal(context.Background(), q, db, align.DefaultLinear()); err == nil {
		t.Error("member saturation must propagate")
	}
}

func TestClusterEmptyInputs(t *testing.T) {
	c := NewCluster(2)
	if score, _, _, err := c.BestLocal(context.Background(), nil, []byte("ACGT"), align.DefaultLinear()); err != nil || score != 0 {
		t.Errorf("empty query: %d %v", score, err)
	}
	if score, _, _, err := c.BestLocal(context.Background(), []byte("ACGT"), nil, align.DefaultLinear()); err != nil || score != 0 {
		t.Errorf("empty database: %d %v", score, err)
	}
}

func TestClusterMoreBoardsThanBases(t *testing.T) {
	c := NewCluster(8)
	q := []byte("ACG")
	db := []byte("ACGT")
	score, i, j, err := c.BestLocal(context.Background(), q, db, align.DefaultLinear())
	if err != nil {
		t.Fatal(err)
	}
	wantScore, wantI, wantJ := align.LocalScore(q, db, align.DefaultLinear())
	if score != wantScore || i != wantI || j != wantJ {
		t.Errorf("tiny db: %d (%d,%d) != %d (%d,%d)", score, i, j, wantScore, wantI, wantJ)
	}
}
