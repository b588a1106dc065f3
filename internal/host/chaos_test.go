package host

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"swfpga/internal/align"
	"swfpga/internal/faults"
	"swfpga/internal/seq"
)

// chaosPolicy keeps injected hangs cheap in wall time while still
// exercising the real deadline path.
func chaosPolicy() Policy {
	return Policy{ChunkTimeout: 2 * time.Millisecond, Backoff: 50 * time.Microsecond}
}

// TestChaosClusterBitIdentical is the chaos property test of DESIGN.md
// invariant §5.10 under §7: for any seeded fault schedule with total
// fault rate ≤ 10% and at least 2 boards, the fault-tolerant cluster
// returns score and coordinates bit-identical to the single-board scan.
func TestChaosClusterBitIdentical(t *testing.T) {
	sc := align.DefaultLinear()
	for _, rate := range []float64{0.02, 0.05, 0.10} {
		for _, boards := range []int{2, 3, 4} {
			for seed := int64(0); seed < 4; seed++ {
				g := seq.NewGenerator(900 + seed)
				q := g.Random(40 + int(seed)*13)
				db := g.Random(600 + int(seed)*211)
				want, wantI, wantJ := align.LocalScore(q, db, sc)

				c := NewCluster(boards)
				c.Policy = chaosPolicy()
				c.InjectFaults(faults.MustRandom(seed*31+int64(boards), faults.Split(rate)))
				score, i, j, rep, err := c.BestLocalReport(context.Background(), q, db, sc)
				if err != nil {
					t.Fatalf("rate %.2f boards %d seed %d: %v", rate, boards, seed, err)
				}
				if score != want || i != wantI || j != wantJ {
					t.Fatalf("rate %.2f boards %d seed %d: cluster %d (%d,%d) != single %d (%d,%d); report: %s",
						rate, boards, seed, score, i, j, want, wantI, wantJ, rep)
				}
				if rep.Faulted() > 0 && rep.Retries == 0 && rep.SoftwareChunks == 0 {
					t.Errorf("rate %.2f boards %d seed %d: %d faults but no retries or fallbacks: %s",
						rate, boards, seed, rep.Faulted(), rep)
				}
			}
		}
	}
}

// TestChaosAllBoardsDeadDegradesToSoftware pins the degradation
// contract: with every board permanently dead the scan still completes,
// on the software scanner, with the identical result and Degraded set.
func TestChaosAllBoardsDeadDegradesToSoftware(t *testing.T) {
	g := seq.NewGenerator(910)
	q := g.Random(50)
	db := g.Random(1500)
	sc := align.DefaultLinear()
	want, wantI, wantJ := align.LocalScore(q, db, sc)

	c := NewCluster(3)
	c.Policy = chaosPolicy()
	c.InjectFaults(faults.MustRandom(1, faults.Rates{Dead: 1}))
	score, i, j, rep, err := c.BestLocalReport(context.Background(), q, db, sc)
	if err != nil {
		t.Fatal(err)
	}
	if score != want || i != wantI || j != wantJ {
		t.Fatalf("degraded scan %d (%d,%d) != software %d (%d,%d)", score, i, j, want, wantI, wantJ)
	}
	if !rep.Degraded {
		t.Error("Degraded not set with every board dead")
	}
	if rep.SoftwareChunks != rep.Chunks {
		t.Errorf("%d of %d chunks completed in software", rep.SoftwareChunks, rep.Chunks)
	}
	if len(rep.Quarantined) != 3 {
		t.Errorf("quarantined %v, want all 3 boards", rep.Quarantined)
	}
	if rep.BoardDeaths == 0 {
		t.Error("no board deaths recorded")
	}

	// The full pipeline degrades too, and reports it.
	crep, err := c.Pipeline(context.Background(), q, db, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !crep.Faults.Degraded {
		t.Error("pipeline report not marked degraded")
	}
	if crep.Result.Score != want {
		t.Errorf("degraded pipeline score %d != %d", crep.Result.Score, want)
	}
	if err := crep.Result.Validate(q, db, sc); err != nil {
		t.Error(err)
	}
}

// TestChaosBoundaryStraddlingUnderFaults plants the best alignment
// across a chunk boundary and injects faults: redistribution and
// retries must not lose the straddling alignment.
func TestChaosBoundaryStraddlingUnderFaults(t *testing.T) {
	g := seq.NewGenerator(911)
	q := g.Random(60)
	db := g.Random(1000)
	seq.PlantMotif(db, q, 470) // straddles the 2-board boundary at 500
	sc := align.DefaultLinear()
	want, wantI, wantJ := align.LocalScore(q, db, sc)
	if want < 55 {
		t.Fatalf("planted motif too weak: %d", want)
	}
	for seed := int64(0); seed < 6; seed++ {
		c := NewCluster(2)
		c.Policy = chaosPolicy()
		c.InjectFaults(faults.MustRandom(seed, faults.Split(0.25)))
		score, i, j, rep, err := c.BestLocalReport(context.Background(), q, db, sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if score != want || i != wantI || j != wantJ {
			t.Fatalf("seed %d: %d (%d,%d) != single %d (%d,%d); report: %s",
				seed, score, i, j, want, wantI, wantJ, rep)
		}
	}
}

// TestChaosSeededScheduleRegression replays an explicit fault schedule
// and pins the exact fault-report counters: a PCI abort on board 0's
// first call and a permanent death of board 1. The counters and the
// result must come out identical on every run.
func TestChaosSeededScheduleRegression(t *testing.T) {
	g := seq.NewGenerator(912)
	q := g.Random(45)
	db := g.Random(1200)
	sc := align.DefaultLinear()
	want, wantI, wantJ := align.LocalScore(q, db, sc)

	run := func() FaultReport {
		c := NewCluster(2)
		c.Policy = chaosPolicy()
		c.InjectFaults(faults.NewSchedule(
			faults.Event{Board: 0, Call: 0, Class: faults.PCI},
			faults.Event{Board: 1, Call: 0, Class: faults.Dead},
		))
		score, i, j, rep, err := c.BestLocalReport(context.Background(), q, db, sc)
		if err != nil {
			t.Fatal(err)
		}
		if score != want || i != wantI || j != wantJ {
			t.Fatalf("scheduled faults: %d (%d,%d) != single %d (%d,%d)", score, i, j, want, wantI, wantJ)
		}
		return rep
	}
	rep := run()
	if rep.Chunks != 2 || rep.PCIErrors != 1 || rep.BoardDeaths != 1 ||
		rep.Retries != 2 || rep.Redispatches != 1 ||
		rep.SoftwareChunks != 0 || rep.Degraded {
		t.Errorf("unexpected report: %s", rep)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 1 {
		t.Errorf("quarantined %v, want [1]", rep.Quarantined)
	}
	if rep.ModeledRetrySeconds <= 0 {
		t.Error("no modeled retry time charged")
	}
	// Replaying the same schedule realizes the same report.
	if again := run(); !reflect.DeepEqual(rep, again) {
		t.Errorf("replay diverged:\n first %s\nsecond %s", rep, again)
	}
}

// TestChaosChecksumDetectsBitFlip pins the verification contract: with
// chunk checksums on, an injected SRAM flip is detected and re-scanned
// on a second board; with checksums disabled the corrupted chunk is
// silently computed over and the result is wrong — exactly why
// verification is part of the §7 contract.
func TestChaosChecksumDetectsBitFlip(t *testing.T) {
	// Query == database: the pristine scan matches perfectly and any
	// flipped base inside the alignment lowers the score.
	q := []byte("ACGTACGTACGTACGT")
	db := append([]byte(nil), q...)
	sc := align.DefaultLinear()
	want, _, _ := align.LocalScore(q, db, sc)
	flip := faults.Event{Board: 0, Call: 0, Class: faults.BitFlip}

	c := NewCluster(1)
	c.Policy = chaosPolicy()
	c.InjectFaults(faults.NewSchedule(flip))
	score, _, _, rep, err := c.BestLocalReport(context.Background(), q, db, sc)
	if err != nil {
		t.Fatal(err)
	}
	if score != want {
		t.Errorf("checksummed scan %d != %d", score, want)
	}
	if rep.ChecksumErrors != 1 || rep.Retries != 1 {
		t.Errorf("detection not recorded: %s", rep)
	}

	// Same flip, checksums off: the corruption leaks into the result.
	c = NewCluster(1)
	c.Policy = chaosPolicy()
	c.Policy.DisableChecksum = true
	c.InjectFaults(faults.NewSchedule(flip))
	score, _, _, rep, err = c.BestLocalReport(context.Background(), q, db, sc)
	if err != nil {
		t.Fatal(err)
	}
	if score >= want {
		t.Errorf("silent bit flip did not lower the score: %d vs %d", score, want)
	}
	if rep.ChecksumErrors != 0 || rep.Retries != 0 {
		t.Errorf("undetectable flip produced detections: %s", rep)
	}
}

// TestChaosBitFlipRescansOnSecondBoard checks the re-dispatch rule: a
// checksum failure retries on a different board than the one that
// streamed the corrupted chunk.
func TestChaosBitFlipRescansOnSecondBoard(t *testing.T) {
	g := seq.NewGenerator(913)
	q := g.Random(40)
	db := g.Random(900)
	sc := align.DefaultLinear()
	want, wantI, wantJ := align.LocalScore(q, db, sc)

	c := NewCluster(2)
	c.Policy = chaosPolicy()
	c.InjectFaults(faults.NewSchedule(faults.Event{Board: 0, Call: 0, Class: faults.BitFlip}))
	score, i, j, rep, err := c.BestLocalReport(context.Background(), q, db, sc)
	if err != nil {
		t.Fatal(err)
	}
	if score != want || i != wantI || j != wantJ {
		t.Fatalf("%d (%d,%d) != single %d (%d,%d)", score, i, j, want, wantI, wantJ)
	}
	if rep.ChecksumErrors != 1 || rep.Redispatches != 1 {
		t.Errorf("flip not re-scanned on the second board: %s", rep)
	}
}

// TestChaosHangsTimeOutAndRecover injects hangs and checks the chunk
// deadline converts them into retried timeouts rather than a stuck
// scan.
func TestChaosHangsTimeOutAndRecover(t *testing.T) {
	g := seq.NewGenerator(914)
	q := g.Random(40)
	db := g.Random(800)
	sc := align.DefaultLinear()
	want, wantI, wantJ := align.LocalScore(q, db, sc)

	c := NewCluster(2)
	c.Policy = chaosPolicy()
	c.InjectFaults(faults.NewSchedule(
		faults.Event{Board: 0, Call: 0, Class: faults.Hang},
		faults.Event{Board: 1, Call: 0, Class: faults.Hang},
	))
	start := time.Now()
	score, i, j, rep, err := c.BestLocalReport(context.Background(), q, db, sc)
	if err != nil {
		t.Fatal(err)
	}
	if score != want || i != wantI || j != wantJ {
		t.Fatalf("%d (%d,%d) != single %d (%d,%d)", score, i, j, want, wantI, wantJ)
	}
	if rep.Timeouts != 2 {
		t.Errorf("timeouts %d, want 2: %s", rep.Timeouts, rep)
	}
	if rep.ModeledRetrySeconds < 2*c.Policy.ChunkTimeout.Seconds() {
		t.Errorf("modeled retry time %.6f s below two chunk deadlines", rep.ModeledRetrySeconds)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("hung-board scan took %v; deadline not enforced", elapsed)
	}
}

// TestChaosDisableFallbackSurfacesExhaustion checks that with the
// software fallback forbidden, an undispatchable scan fails loudly
// instead of degrading.
func TestChaosDisableFallbackSurfacesExhaustion(t *testing.T) {
	g := seq.NewGenerator(915)
	q := g.Random(30)
	db := g.Random(500)
	c := NewCluster(2)
	c.Policy = chaosPolicy()
	c.Policy.DisableFallback = true
	c.InjectFaults(faults.MustRandom(1, faults.Rates{Dead: 1}))
	_, _, _, _, err := c.BestLocalReport(context.Background(), q, db, align.DefaultLinear())
	if err == nil {
		t.Fatal("all-dead cluster with fallback disabled must error")
	}
	if !strings.Contains(err.Error(), "quarantined") && !strings.Contains(err.Error(), "retries") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestChaosContextCancellation checks ctx short-circuits the scan.
func TestChaosContextCancellation(t *testing.T) {
	g := seq.NewGenerator(916)
	q := g.Random(30)
	db := g.Random(500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCluster(2)
	if _, _, _, _, err := c.BestLocalReport(ctx, q, db, align.DefaultLinear()); err == nil {
		t.Fatal("cancelled context must fail the scan")
	}
}

// TestChaosFaultReportAccumulates checks the cluster-level accumulators
// and the Merge helper used by report aggregation.
func TestChaosFaultReportAccumulates(t *testing.T) {
	g := seq.NewGenerator(917)
	q := g.Random(30)
	db := g.Random(600)
	sc := align.DefaultLinear()
	c := NewCluster(2)
	c.Policy = chaosPolicy()
	c.InjectFaults(faults.NewSchedule(faults.Event{Board: 0, Call: 0, Class: faults.PCI}))
	if _, _, _, err := c.BestLocal(context.Background(), q, db, sc); err != nil {
		t.Fatal(err)
	}
	if got := c.LastFaults(); got.PCIErrors != 1 {
		t.Errorf("last report missed the PCI fault: %s", got)
	}
	if _, _, _, err := c.BestLocal(context.Background(), q, db, sc); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalFaults(); got.Chunks != 4 || got.PCIErrors != 1 {
		t.Errorf("accumulated report wrong: %s", got)
	}
	var agg FaultReport
	agg.Merge(c.LastFaults())
	agg.Merge(c.TotalFaults())
	if agg.Chunks != 6 {
		t.Errorf("Merge lost chunks: %s", agg)
	}
}

// TestChaosReverseScanErrorKeepsFaultReport checks that a pipeline whose
// reverse scan fails still returns the run's fault report, and records
// it as the cluster's last report.
func TestChaosReverseScanErrorKeepsFaultReport(t *testing.T) {
	g := seq.NewGenerator(918)
	q := g.Random(30)
	db := g.Random(500)
	seq.PlantMotif(db, q, 200)
	c := NewCluster(1)
	c.Policy = chaosPolicy()
	c.Policy.DisableFallback = true
	// Call 0 is the forward scan's only chunk, call 1 the reverse scan.
	c.InjectFaults(faults.NewSchedule(faults.Event{Board: 0, Call: 1, Class: faults.Dead}))
	rep, err := c.Pipeline(context.Background(), q, db, align.DefaultLinear())
	if err == nil {
		t.Fatal("reverse scan on a dead board with fallback disabled must error")
	}
	if rep.Faults.Chunks != 1 || rep.Faults.BoardDeaths != 1 || len(rep.Faults.Quarantined) != 1 {
		t.Errorf("fault report lost with the reverse-scan error: %s", rep.Faults)
	}
	if got := c.LastFaults(); got.String() != rep.Faults.String() {
		t.Errorf("last report %s != pipeline report %s", got, rep.Faults)
	}
}
