package bench

import (
	"context"
	"fmt"
	"io"

	"swfpga/internal/align"
	"swfpga/internal/host"
	"swfpga/internal/linear"
	"swfpga/internal/seq"
)

func init() {
	register(Experiment{
		ID:       "pipeline",
		Title:    "integrated host+accelerator linear-space alignment",
		Artifact: "sec. 2.3 + sec. 5 integration",
		Run:      runPipeline,
	})
}

func runPipeline(ctx context.Context, w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	gen := seq.NewGenerator(cfg.Seed)
	n := cfg.scaled(20_000)
	a := gen.Random(n)
	b, err := gen.Mutate(a, seq.DefaultMutationProfile())
	if err != nil {
		return err
	}
	sc := align.DefaultLinear()

	dev := host.NewDevice()
	rep, err := host.Pipeline(ctx, dev, a, b, sc)
	if err != nil {
		return err
	}
	// Software reference for the same pipeline.
	var swRes align.Result
	swSec := measure(func() {
		var lerr error
		swRes, _, lerr = linear.Local(ctx, a, b, sc, nil)
		if lerr != nil {
			err = lerr
		}
	})
	if err != nil {
		return err
	}
	if swRes.Score != rep.Result.Score {
		return fmt.Errorf("accelerated score %d != software %d", rep.Result.Score, swRes.Score)
	}
	if err := rep.Result.Validate(a, b, sc); err != nil {
		return err
	}

	fmt.Fprintf(w, "workload: homologous pair, %d x %d BP; best local alignment scores %d\n",
		len(a), len(b), rep.Result.Score)
	fmt.Fprintf(w, "span: s[%d:%d] ~ t[%d:%d], identity %.1f%%, CIGAR length %d ops\n\n",
		rep.Result.SStart, rep.Result.SEnd, rep.Result.TStart, rep.Result.TEnd,
		rep.Result.Identity()*100, len(rep.Result.Ops))
	tw := table(w)
	fmt.Fprintln(tw, "stage\twhere\ttime")
	fmt.Fprintf(tw, "phase 1+2 scans (modeled)\taccelerator\t%.4f s\n", rep.AcceleratorSeconds)
	fmt.Fprintf(tw, "PCI traffic (modeled)\tboard link\t%.4f s\n", rep.TransferSeconds)
	fmt.Fprintf(tw, "phase 3 retrieval (measured)\thost\t%.4f s\n", rep.HostSeconds)
	fmt.Fprintf(tw, "total (modeled)\t\t%.4f s\n", rep.ModeledTotalSeconds())
	fmt.Fprintf(tw, "all-software pipeline (measured)\thost\t%.4f s\n", swSec)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\naccelerator handled %d cells over %d scan calls; result traffic %d bytes\n",
		dev.Metrics.Cells, dev.Metrics.Calls, dev.Metrics.BytesOut)
	total := rep.ModeledTotalSeconds()
	than := "no more"
	if rep.HostSeconds > total-rep.HostSeconds {
		than = "more"
	}
	fmt.Fprintf(w, "host retrieval takes %.1f%% of the modeled total, %s than the accelerator\n", 100*rep.HostSeconds/total, than)
	fmt.Fprintln(w, "side (scans, PCI traffic and fault recovery) together")
	return nil
}
