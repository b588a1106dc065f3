package host

import (
	"context"
	"reflect"
	"testing"

	"swfpga/internal/align"
	"swfpga/internal/linear"
)

// fuzzDNA maps raw fuzz bytes to at most 150 bases.
func fuzzDNA(raw []byte) []byte {
	const bases = "ACGT"
	raw = raw[:min(len(raw), 150)]
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = bases[b&3]
	}
	return out
}

// FuzzPipelinesAgree holds every entry into the three-phase pipeline to
// the software one: the single-device and cluster pipelines on a
// partitioned array and NearBest's first hit match it exactly, and the
// restricted-memory pipelines on the device match their software runs.
func FuzzPipelinesAgree(f *testing.F) {
	f.Add([]byte("TATGGACTAGTGACT"), []byte("TAGTGACTTTATGGAC"), uint8(0), uint8(0))
	f.Add([]byte("ACGTACGT"), []byte("TTACGTACGTTT"), uint8(9), uint8(1))
	f.Add([]byte("AAAA"), []byte("TTTT"), uint8(3), uint8(0))
	// Two optimal paths tie: the device and the software scan track
	// different bands.
	f.Add([]byte("01701707010017"), []byte("0070107001001"), uint8(0x9e), uint8('B'))
	f.Fuzz(func(t *testing.T, rawS, rawU []byte, elements, boards uint8) {
		s, u := fuzzDNA(rawS), fuzzDNA(rawU)
		if len(s) == 0 || len(u) == 0 {
			t.Skip("empty sequence")
		}
		ctx := context.Background()
		sc := align.DefaultLinear()
		newDevice := func() *Device {
			d := NewDevice()
			d.Array.Elements = 4 + int(elements%13)
			return d
		}
		want, wantPh, err := linear.Local(ctx, s, u, sc, nil)
		if err != nil {
			t.Fatal(err)
		}

		d := newDevice()
		rep, err := Pipeline(ctx, d, s, u, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Result, want) || rep.Phases != wantPh {
			t.Fatalf("device pipeline %+v %+v != software %+v %+v", rep.Result, rep.Phases, want, wantPh)
		}
		c := &Cluster{}
		for i := 0; i < 2+int(boards%2); i++ {
			c.Devices = append(c.Devices, newDevice())
		}
		crep, err := c.Pipeline(ctx, s, u, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(crep.Result, want) || crep.Phases != wantPh {
			t.Fatalf("%d-board pipeline %+v %+v != software %+v %+v",
				len(c.Devices), crep.Result, crep.Phases, want, wantPh)
		}

		hits, err := linear.NearBest(ctx, s, u, sc, 1, 1, d)
		if err != nil {
			t.Fatal(err)
		}
		if want.Score == 0 {
			if len(hits) != 0 {
				t.Fatalf("near-best found %+v where the best score is 0", hits)
			}
		} else if len(hits) != 1 || !reflect.DeepEqual(hits[0], want) {
			t.Fatalf("near-best first hit %+v != local %+v", hits, want)
		}

		// The restricted pipelines retrieve inside the band of the path
		// each engine's reverse scan tracked. Where several optimal paths
		// tie, the bands and so the transcripts may differ; the scores,
		// spans and scan outputs may not.
		hw, hwInfo, err := linear.LocalRestricted(ctx, s, u, sc, d)
		if err != nil {
			t.Fatal(err)
		}
		sw, swInfo, err := linear.LocalRestricted(ctx, s, u, sc, linear.ScanSoftware{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameSpan(hw, sw) || hwInfo.Phases != swInfo.Phases {
			t.Fatalf("restricted on device %+v %+v != software %+v %+v", hw, hwInfo, sw, swInfo)
		}
		if err := hw.Validate(s, u, sc); hw.Score > 0 && err != nil {
			t.Fatalf("restricted on device: %v", err)
		}
		asc := align.DefaultAffine()
		hw, hwInfo, err = linear.LocalAffineRestricted(ctx, s, u, asc, d)
		if err != nil {
			t.Fatal(err)
		}
		sw, swInfo, err = linear.LocalAffineRestricted(ctx, s, u, asc, linear.ScanSoftware{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameSpan(hw, sw) || hwInfo.Phases != swInfo.Phases {
			t.Fatalf("affine restricted on device %+v %+v != software %+v %+v", hw, hwInfo, sw, swInfo)
		}
		if hw.Score > 0 {
			if got, err := align.AffineOpScore(hw.Ops, s, u, hw.SStart, hw.TStart, asc); err != nil || got != hw.Score {
				t.Fatalf("affine restricted on device: transcript replays to %d, %v", got, err)
			}
		}
	})
}

// sameSpan reports whether two alignments have the same score and span.
func sameSpan(a, b align.Result) bool {
	return a.Score == b.Score && a.SStart == b.SStart && a.SEnd == b.SEnd &&
		a.TStart == b.TStart && a.TEnd == b.TEnd
}
