package host

import (
	"context"
	"fmt"
	"sync"
	"time"

	"swfpga/internal/align"
	"swfpga/internal/faults"
	"swfpga/internal/linear"
	"swfpga/internal/telemetry"
)

// Cluster distributes the forward scan of a long database across
// several accelerator boards, the master/worker organization of Z-align
// (paper sec. 2.4, reference [3]) that sec. 5 names as the integration
// target: each node scans a database chunk, all nodes report their best
// score and coordinates to the master, and the master picks the global
// best.
//
// Chunks overlap by the maximum database span any positive-scoring
// local alignment can have, so an alignment straddling a chunk boundary
// is always contained whole in some chunk and the distributed result is
// bit-identical to a single-board scan.
//
// The cluster is fault tolerant (see Policy and DESIGN.md §7): chunks
// are dispatched through a work queue rather than pinned to boards,
// failed attempts retry with exponential backoff, boards that keep
// failing are quarantined and their chunks redistributed, and when no
// healthy board remains the scan completes on the software scanner —
// in every case the result stays bit-identical to a single-board scan.
type Cluster struct {
	// Devices are the member boards (at least one).
	Devices []*Device
	// Policy configures fault tolerance; the zero value gives sensible
	// defaults (see Policy).
	Policy Policy

	// mu guards the fault-report accumulators.
	mu    sync.Mutex
	last  FaultReport
	total FaultReport
}

// NewCluster builds a cluster of n identical prototype boards.
func NewCluster(n int) *Cluster {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		d := NewDevice()
		d.ID = i
		c.Devices = append(c.Devices, d)
	}
	return c
}

// InjectFaults points every board at the injector (and renumbers board
// IDs to the cluster indices the injector's schedule uses). A nil
// injector removes fault injection.
func (c *Cluster) InjectFaults(inj faults.Injector) {
	for i, d := range c.Devices {
		d.ID = i
		d.Faults = inj
	}
}

// Validate checks every member board.
func (c *Cluster) Validate() error {
	if len(c.Devices) == 0 {
		return fmt.Errorf("host: cluster has no devices")
	}
	for i, d := range c.Devices {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("host: cluster device %d: %w", i, err)
		}
	}
	return nil
}

// maxSpan is the chunk overlap: the database span any positive-scoring
// local alignment of a length-m query can cover (scoring.LinearScoring.
// MaxSpan). A non-negative gap penalty has no such bound (any span
// extends for free), so it is rejected rather than divided by.
func maxSpan(m int, sc align.LinearScoring) (int, error) {
	if sc.Gap >= 0 {
		return 0, fmt.Errorf("host: gap penalty %d must be negative to bound the chunk overlap", sc.Gap)
	}
	return sc.MaxSpan(m), nil
}

// part is one chunk's best in global database coordinates.
type part struct {
	score, i, j int
}

// mergeParts applies the master's global tie-break (highest score, then
// smallest row, then smallest column) — the decision the master node
// makes in phase 3 of [3].
func mergeParts(parts []part) part {
	var best part
	for _, p := range parts {
		if p.score > best.score ||
			(p.score == best.score && p.score > 0 &&
				(p.i < best.i || (p.i == best.i && p.j < best.j))) {
			best = p
		}
	}
	return best
}

// BestLocal implements the distributed forward scan as a linear.Scanner
// under the caller's context; see BestLocalReport for the
// fault-tolerant dispatch it performs. The fault report of the call is
// retained on the cluster (LastFaults / TotalFaults) rather than
// returned.
func (c *Cluster) BestLocal(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
	score, i, j, _, err := c.BestLocalReport(ctx, s, t, sc)
	return score, i, j, err
}

// BestAnchored runs the anchored reverse scan on a healthy board with
// the same retry/quarantine/degradation policy as the forward scan,
// completing the linear.Scanner contract so a fault-tolerant cluster
// can drop in wherever a single board would (e.g. as a search engine).
func (c *Cluster) BestAnchored(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
	var rev FaultReport
	score, i, j, err := c.anchoredResilient(ctx, s, t, sc, &rev)
	c.record(rev)
	return score, i, j, err
}

// LastFaults returns the fault report of the most recent distributed
// scan.
func (c *Cluster) LastFaults() FaultReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last.clone()
}

// TotalFaults returns the fault report accumulated across every
// distributed scan this cluster ran.
func (c *Cluster) TotalFaults() FaultReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total.clone()
}

// ClusterReport is the outcome of a distributed pipeline run.
type ClusterReport struct {
	// Result is the retrieved alignment.
	Result align.Result
	// Phases carries the scan outputs in global coordinates.
	Phases linear.Phases
	// ScanSeconds is the modeled wall time of the distributed forward
	// scan: the slowest board's share (boards run concurrently).
	ScanSeconds float64
	// ReverseSeconds is the modeled reverse-scan time.
	ReverseSeconds float64
	// HostSeconds is the measured retrieval time.
	HostSeconds float64
	// Faults reports the fault-tolerance activity of the run (retries,
	// quarantines, software degradation).
	Faults FaultReport
}

// ModeledTotalSeconds is the modeled end-to-end latency of the
// distributed run, including what fault handling cost: the slowest
// board's scan share, the reverse scan, host retrieval, the modeled
// retry/recovery time, and the wall time of software-fallback chunks.
// A degraded run therefore reports honestly slower totals than a clean
// one instead of silently dropping the recovery terms.
func (r ClusterReport) ModeledTotalSeconds() float64 {
	return r.ScanSeconds + r.ReverseSeconds + r.HostSeconds +
		r.Faults.ModeledRetrySeconds + r.Faults.SoftwareSeconds
}

// Pipeline runs the full linear-space local alignment with the forward
// scan distributed over the cluster, the reverse scan on a healthy
// board (it covers only the prefixes ending at the located
// coordinates), and retrieval on the master host. ctx aborts the
// distributed scan between (and for hung boards, during) chunk
// dispatches.
func (c *Cluster) Pipeline(ctx context.Context, s, t []byte, sc align.LinearScoring) (ClusterReport, error) {
	var rep ClusterReport
	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanClusterPipeline)
	span.SetInt("query_len", int64(len(s)))
	span.SetInt("db_len", int64(len(t)))
	defer span.End()
	forward := func(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
		slowest := c.slowestBoard()
		score, endI, endJ, frep, err := c.BestLocalReport(ctx, s, t, sc)
		rep.Faults, rep.ScanSeconds = frep, slowest()
		return score, endI, endJ, err
	}
	reverse := func(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
		start, slowest := time.Now(), c.slowestBoard()
		var rev FaultReport
		score, endI, endJ, err := c.anchoredResilient(ctx, s, t, sc, &rev)
		rep.Faults.merge(rev)
		c.mu.Lock()
		c.total.merge(rev)
		c.last = rep.Faults.clone()
		c.mu.Unlock()
		if rep.ReverseSeconds = slowest(); rep.ReverseSeconds == 0 && rev.Degraded {
			// Degraded reverse scan ran on the host: report its wall time.
			rep.ReverseSeconds = time.Since(start).Seconds()
		}
		return score, endI, endJ, err
	}
	var err error
	rep.Result, rep.Phases, err = linear.Pipeline[align.LinearScoring]{
		Forward:  forward,
		Reverse:  linear.WholeBand(reverse),
		Retrieve: retrieveTimed(&rep.HostSeconds),
	}.Run(ctx, s, t, sc)
	return rep, err
}

// slowestBoard snapshots every board's modeled compute time and returns
// a function giving the largest growth since: boards scan concurrently,
// so that is the modeled wall time of the scan in between.
func (c *Cluster) slowestBoard() func() float64 {
	before := make([]float64, len(c.Devices))
	for i, d := range c.Devices {
		before[i] = d.Metrics.ComputeSeconds
	}
	return func() float64 {
		var slowest float64
		for i, d := range c.Devices {
			slowest = max(slowest, d.Metrics.ComputeSeconds-before[i])
		}
		return slowest
	}
}

// TotalCells sums the cell updates across the cluster (the distributed
// scan computes overlap regions twice; this exposes that overhead).
func (c *Cluster) TotalCells() uint64 {
	var total uint64
	for _, d := range c.Devices {
		total += d.Metrics.Cells
	}
	return total
}
