// Package host integrates the simulated FPGA accelerator into the
// linear-space alignment pipeline the paper targets (sec. 5: "this
// solution can be easily integrated to parallel algorithms ... that will
// produce the alignments in software"). A Device wraps the systolic
// array simulator behind the linear.Scanner interface, charges modeled
// board-communication and compute time for every call, and the Pipeline
// function runs the full three-phase local alignment with the scan
// phases on the accelerator and retrieval on the host.
package host

import (
	"context"
	"fmt"
	"time"

	"swfpga/internal/align"
	"swfpga/internal/faults"
	"swfpga/internal/fpga"
	"swfpga/internal/linear"
	"swfpga/internal/systolic"
	"swfpga/internal/telemetry"
)

// Metrics accumulates the modeled cost of accelerator use for one
// device. It is a per-board compatibility view: the same quantities
// (summed across all boards in the process) flow into the global
// telemetry registry — swfpga_scan_calls_total, _cells_updated_total,
// _modeled_compute_seconds_total and friends — which is what the
// /metrics exposition and the run manifest report. Per-board
// attribution (the cluster's slowest-board scan time, fault schedules)
// still reads this struct.
type Metrics struct {
	// Calls counts scan invocations.
	Calls int
	// Cells and Cycles aggregate the array counters.
	Cells  uint64
	Cycles uint64
	// ComputeSeconds is the modeled array execution time.
	ComputeSeconds float64
	// TransferSeconds is the modeled PCI traffic time (sequences in,
	// result records out).
	TransferSeconds float64
	// BytesIn and BytesOut are the modeled PCI byte counts.
	BytesIn, BytesOut int
	// Faults counts injected-fault attempts, and FaultSeconds is the
	// modeled host-link time those lost attempts consumed (aborted
	// streams plus reset handshakes; see fpga.Board.FaultRecoverySeconds).
	Faults       int
	FaultSeconds float64
}

// Device is a simulated FPGA accelerator board: the systolic array plus
// the board's communication and timing models. It implements
// linear.Scanner, so it can drive the three-phase pipeline directly.
//
// A Device serves one operation at a time (the cluster dispatcher and
// the per-worker search engines both respect this); Metrics and the
// fault-schedule call counter rely on that ownership.
type Device struct {
	// Array configures the systolic array (element count, scoring,
	// register width). The Scoring and Anchored fields are set per call.
	Array systolic.Config
	// Board models SRAM and the PCI link.
	Board fpga.Board
	// Timing converts array steps to wall-clock seconds.
	Timing fpga.TimingModel
	// Metrics accumulates modeled costs across calls.
	Metrics Metrics
	// ID names this board in a cluster and in fault schedules.
	ID int
	// Faults, when non-nil, is consulted before every scan and may make
	// the attempt fail (or, for bit flips without checksums, silently
	// corrupt the streamed chunk). Nil means a perfect board.
	Faults faults.Injector
	// Checksum models the host verifying a CRC of the streamed chunk
	// against the board's readback: injected bit flips are then detected
	// and surface as a *faults.Error instead of corrupting the result.
	// NewDevice enables it.
	Checksum bool

	// calls is the board-local operation sequence number for fault
	// scheduling.
	calls int
}

// NewDevice assembles the paper's prototype: a 100-element array on the
// xc2vp70 board with the paper-calibrated timing model.
func NewDevice() *Device {
	return &Device{
		Array:    systolic.DefaultConfig(),
		Board:    fpga.DefaultBoard(),
		Timing:   fpga.CalibratedTiming(),
		Checksum: true,
	}
}

// injectFault consults the injector for the next operation over an
// n-base chunk. It returns a corrupted copy of t for undetected bit
// flips, or the fault error ending this attempt (nil, nil on a clean
// operation). Hangs block until the caller's deadline fires, modeling a
// board that stops responding; without a deadline a watchdog reports
// them immediately.
func (d *Device) injectFault(ctx context.Context, t []byte) ([]byte, error) {
	if d.Faults == nil {
		return nil, nil
	}
	op := faults.Op{Board: d.ID, Call: d.calls, Bases: len(t)}
	d.calls++
	class := d.Faults.Inject(op)
	if class == faults.None {
		return nil, nil
	}
	ferr := &faults.Error{Class: class, Board: op.Board, Call: op.Call}
	telemetry.Faults.With(class.String()).Add(1)
	if span := telemetry.SpanFromContext(ctx); span != nil {
		span.Event(fmt.Sprintf("fault %s board %d call %d", class, op.Board, op.Call))
	}
	switch class {
	case faults.Hang:
		if _, hasDeadline := ctx.Deadline(); hasDeadline {
			<-ctx.Done()
		}
		d.Metrics.Faults++
		return nil, ferr
	case faults.BitFlip:
		if !d.Checksum && len(t) > 0 {
			// No chunk verification: the board computes over the
			// corrupted chunk and the wrong result leaks silently.
			corrupted := append([]byte(nil), t...)
			i := (op.Call*2654435761 + op.Board) % len(t)
			corrupted[i] = flipBase(corrupted[i])
			return corrupted, nil
		}
		fallthrough
	default: // PCI, detected BitFlip, Dead
		d.Metrics.Faults++
		recovery := d.Board.FaultRecoverySeconds(len(t))
		d.Metrics.FaultSeconds += recovery
		telemetry.FaultSeconds.Add(recovery)
		return nil, ferr
	}
}

// flipBase models a single-bit upset in the 2-bit packed base encoding:
// the stored base becomes a different valid base.
func flipBase(b byte) byte {
	switch b {
	case 'A':
		return 'C'
	case 'C':
		return 'G'
	case 'G':
		return 'T'
	case 'T':
		return 'A'
	}
	return b
}

// Validate checks the device composition.
func (d *Device) Validate() error {
	if err := d.Array.Validate(); err != nil {
		return err
	}
	if err := d.Board.Validate(); err != nil {
		return err
	}
	return d.Timing.Validate()
}

// run executes one scan on the array and charges its modeled costs.
func (d *Device) run(ctx context.Context, s, t []byte, sc align.LinearScoring, anchored, divergence bool) (systolic.Result, error) {
	if err := ctx.Err(); err != nil {
		return systolic.Result{}, err
	}
	cfg := d.Array
	cfg.Scoring = sc
	cfg.Anchored = anchored
	cfg.TrackDivergence = divergence
	if err := d.Board.DatabaseFits(len(t), len(s) > cfg.Elements); err != nil {
		return systolic.Result{}, err
	}
	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanDeviceScan)
	span.SetInt("board", int64(d.ID))
	span.SetInt("bases", int64(len(t)))
	if anchored {
		span.SetStr("phase", "reverse")
	} else {
		span.SetStr("phase", "forward")
	}
	if corrupted, err := d.injectFault(ctx, t); err != nil {
		span.SetStr("outcome", "fault")
		span.End()
		return systolic.Result{}, err
	} else if corrupted != nil {
		t = corrupted
	}
	res, err := systolic.RunCtx(ctx, cfg, s, t)
	if err != nil {
		span.SetStr("outcome", "error")
		span.End()
		return systolic.Result{}, err
	}
	d.charge(res, len(s), len(t), span)
	return res, nil
}

// charge books one successful scan into the per-device Metrics view and
// the global telemetry registry, and closes the device span.
func (d *Device) charge(res systolic.Result, m, n int, span *telemetry.Span) {
	plan := d.Board.PlanComparison(m, n)
	compute := d.Timing.Seconds(res.Stats)
	transfer := plan.InSeconds + plan.OutSeconds
	d.Metrics.Calls++
	d.Metrics.Cells += res.Stats.Cells
	d.Metrics.Cycles += res.Stats.Cycles
	d.Metrics.ComputeSeconds += compute
	d.Metrics.TransferSeconds += transfer
	d.Metrics.BytesIn += plan.InBytes
	d.Metrics.BytesOut += plan.OutBytes

	telemetry.ScanCalls.Inc()
	telemetry.ComputeSeconds.Add(compute)
	telemetry.TransferSeconds.Add(transfer)
	telemetry.BytesIn.Add(int64(plan.InBytes))
	telemetry.BytesOut.Add(int64(plan.OutBytes))
	telemetry.ChunkSeconds.Observe(compute + transfer)
	telemetry.UpdateModeledGCUPS()
	span.SetFloat("modeled_seconds", compute+transfer)
	span.End()
}

// BestLocal implements linear.Scanner on the accelerator, with
// cancellation: the scan is not started once ctx is done, and a hung
// board blocks only until the deadline.
func (d *Device) BestLocal(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
	res, err := d.run(ctx, s, t, sc, false, false)
	return res.Score, res.EndI, res.EndJ, err
}

// BestAnchored implements linear.Scanner on the accelerator using the
// anchored datapath variant (see systolic.Config.Anchored).
func (d *Device) BestAnchored(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
	res, err := d.run(ctx, s, t, sc, true, false)
	return res.Score, res.EndI, res.EndJ, err
}

// BestAnchoredDivergence implements linear.DivergenceScanner: the
// anchored scan with the Z-align divergence registers enabled, so the
// accelerator also reports the retrieval band.
func (d *Device) BestAnchoredDivergence(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, int, int, error) {
	res, err := d.run(ctx, s, t, sc, true, true)
	return res.Score, res.EndI, res.EndJ, res.InfDiv, res.SupDiv, err
}

// runAffine executes one scan on the Gotoh array variant, charging the
// same modeled costs as run.
func (d *Device) runAffine(ctx context.Context, s, t []byte, sc align.AffineScoring, anchored, divergence bool) (systolic.Result, error) {
	cfg := systolic.AffineConfig{
		Elements:        d.Array.Elements,
		Scoring:         sc,
		ScoreBits:       d.Array.ScoreBits,
		ReloadCycles:    d.Array.ReloadCycles,
		Anchored:        anchored,
		TrackDivergence: divergence,
	}
	if err := d.Board.DatabaseFits(len(t), len(s) > cfg.Elements); err != nil {
		return systolic.Result{}, err
	}
	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanDeviceScanAffine)
	span.SetInt("board", int64(d.ID))
	span.SetInt("bases", int64(len(t)))
	if corrupted, err := d.injectFault(ctx, t); err != nil {
		span.SetStr("outcome", "fault")
		span.End()
		return systolic.Result{}, err
	} else if corrupted != nil {
		t = corrupted
	}
	res, err := systolic.RunAffineCtx(ctx, cfg, s, t)
	if err != nil {
		span.SetStr("outcome", "error")
		span.End()
		return systolic.Result{}, err
	}
	d.charge(res, len(s), len(t), span)
	return res, nil
}

// BestAffineLocal implements linear.AffineScanner on the Gotoh array.
func (d *Device) BestAffineLocal(ctx context.Context, s, t []byte, sc align.AffineScoring) (int, int, int, error) {
	res, err := d.runAffine(ctx, s, t, sc, false, false)
	return res.Score, res.EndI, res.EndJ, err
}

// BestAffineAnchoredDivergence implements linear.AffineScanner: the
// anchored Gotoh datapath with divergence registers.
func (d *Device) BestAffineAnchoredDivergence(ctx context.Context, s, t []byte, sc align.AffineScoring) (int, int, int, int, int, error) {
	res, err := d.runAffine(ctx, s, t, sc, true, true)
	return res.Score, res.EndI, res.EndJ, res.InfDiv, res.SupDiv, err
}

// Report is the outcome of one accelerated pipeline run.
type Report struct {
	// Result is the full local alignment.
	Result align.Result
	// Phases carries the scan outputs (score, end and start coordinates).
	Phases linear.Phases
	// AcceleratorSeconds is the modeled array compute time of the two
	// scan phases.
	AcceleratorSeconds float64
	// TransferSeconds is the modeled PCI time of the two scan phases.
	TransferSeconds float64
	// HostSeconds is the measured wall time of the host-side retrieval
	// (phase 3, Hirschberg).
	HostSeconds float64
	// FaultSeconds is the modeled recovery time charged by scan attempts
	// that faulted during this run (aborted streams plus reset
	// handshakes; see fpga.Board.FaultRecoverySeconds). Zero on a
	// healthy board.
	FaultSeconds float64
}

// ModeledTotalSeconds is the modeled end-to-end latency: accelerator
// compute, board traffic, host retrieval, and — on a faulty board —
// the recovery time of failed attempts. Omitting the last term made a
// degraded run look as fast as a clean one.
func (r Report) ModeledTotalSeconds() float64 {
	return r.AcceleratorSeconds + r.TransferSeconds + r.HostSeconds + r.FaultSeconds
}

// Pipeline runs the complete linear-space local alignment with both
// scan phases on the device and retrieval on the host, mirroring the
// phase structure of sec. 2.3: forward scan (accelerator) → reverse
// scan over the reversed prefixes (accelerator) → Hirschberg retrieval
// between the located coordinates (host software, measured wall time).
// It runs under the caller's context — cancellation reaches a scan in
// flight, and when the context carries a telemetry span the run is
// traced as host.pipeline → device.scan (forward) → device.scan
// (reverse) → host.retrieve.
func Pipeline(ctx context.Context, d *Device, s, t []byte, sc align.LinearScoring) (Report, error) {
	if err := d.Validate(); err != nil {
		return Report{}, err
	}
	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanHostPipeline)
	span.SetInt("query_len", int64(len(s)))
	span.SetInt("db_len", int64(len(t)))
	defer span.End()
	before := d.Metrics
	var rep Report
	var err error
	rep.Result, rep.Phases, err = linear.Pipeline[align.LinearScoring]{
		Forward:  d.BestLocal,
		Reverse:  linear.WholeBand(d.BestAnchored),
		Retrieve: retrieveTimed(&rep.HostSeconds),
	}.Run(ctx, s, t, sc)
	if err != nil {
		return Report{}, err
	}
	// Retrieval runs on the host, so the deltas are the two scans'.
	rep.AcceleratorSeconds = d.Metrics.ComputeSeconds - before.ComputeSeconds
	rep.TransferSeconds = d.Metrics.TransferSeconds - before.TransferSeconds
	rep.FaultSeconds = d.Metrics.FaultSeconds - before.FaultSeconds
	return rep, nil
}

// retrieveTimed is phase 3 on the host, Hirschberg's algorithm, traced
// as a host.retrieve span. Its measured wall time goes to *seconds and
// to swfpga_host_seconds_total.
func retrieveTimed(seconds *float64) func(context.Context, []byte, []byte, align.LinearScoring, int, int) (align.Result, error) {
	return func(ctx context.Context, s, t []byte, sc align.LinearScoring, _, _ int) (align.Result, error) {
		_, span := telemetry.StartSpan(ctx, telemetry.SpanHostRetrieve)
		t0 := time.Now()
		sub := linear.Global(s, t, sc)
		*seconds = time.Since(t0).Seconds()
		telemetry.HostSeconds.Add(*seconds)
		span.SetInt("score", int64(sub.Score))
		span.End()
		return sub, nil
	}
}

// BatchPlan aggregates the modeled cost of a batched scan.
type BatchPlan struct {
	// BytesIn and BytesOut are the total PCI traffic.
	BytesIn, BytesOut int
	// TransferSeconds and ComputeSeconds are the modeled totals.
	TransferSeconds, ComputeSeconds float64
}

// BatchScan compares one query against many database records,
// amortizing the host link: the query is uploaded once for the whole
// batch (it stays resident in the elements), each record streams
// through the array in turn, and each result returns in a single
// ResultBytes record. This is how a deployed board serves the
// database-search workload of sec. 6 without paying the per-call setup
// the naive one-comparison-at-a-time usage incurs.
func (d *Device) BatchScan(query []byte, records [][]byte, sc align.LinearScoring) ([]systolic.Result, BatchPlan, error) {
	var plan BatchPlan
	if len(records) == 0 {
		return nil, plan, nil
	}
	cfg := d.Array
	cfg.Scoring = sc
	// The whole batch moves in two coalesced DMA transfers: the query
	// plus all records up front, all result records on the way back —
	// paying the link setup latency twice instead of twice per record.
	plan.BytesIn = (len(query) + 3) / 4
	out := make([]systolic.Result, 0, len(records))
	for _, rec := range records {
		if err := d.Board.DatabaseFits(len(rec), len(query) > cfg.Elements); err != nil {
			return nil, plan, err
		}
		res, err := systolic.Run(cfg, query, rec)
		if err != nil {
			return nil, plan, err
		}
		plan.BytesIn += (len(rec) + 3) / 4
		plan.BytesOut += fpga.ResultBytes
		plan.ComputeSeconds += d.Timing.Seconds(res.Stats)
		d.Metrics.Calls++
		d.Metrics.Cells += res.Stats.Cells
		d.Metrics.Cycles += res.Stats.Cycles
		telemetry.ScanCalls.Inc()
		telemetry.CellsUpdated.Add(int64(res.Stats.Cells))
		telemetry.ArrayCycles.Add(int64(res.Stats.Cycles))
		out = append(out, res)
	}
	plan.TransferSeconds = d.Board.TransferSeconds(plan.BytesIn) + d.Board.TransferSeconds(plan.BytesOut)
	d.Metrics.ComputeSeconds += plan.ComputeSeconds
	d.Metrics.TransferSeconds += plan.TransferSeconds
	d.Metrics.BytesIn += plan.BytesIn
	d.Metrics.BytesOut += plan.BytesOut
	telemetry.ComputeSeconds.Add(plan.ComputeSeconds)
	telemetry.TransferSeconds.Add(plan.TransferSeconds)
	telemetry.BytesIn.Add(int64(plan.BytesIn))
	telemetry.BytesOut.Add(int64(plan.BytesOut))
	telemetry.UpdateModeledGCUPS()
	return out, plan, nil
}
