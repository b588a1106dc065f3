package scoring

import "testing"

// gappedScore scores m matching columns with g database bases inserted
// after the first: an alignment covering m+g database bases.
func gappedScore(sc LinearScoring, m, g int) int {
	score := 0
	for i := 0; i < m; i++ {
		score += sc.Score('A', 'A')
		if i == 0 {
			score += g * sc.Gap
		}
	}
	return score
}

func TestMaxSpanIsTight(t *testing.T) {
	for _, sc := range []LinearScoring{
		DefaultLinear(),
		{Match: 1, Mismatch: -1, Gap: -1},
		{Match: 2, Mismatch: -3, Gap: -5},
		{Match: 5, Mismatch: -4, Gap: -3},
		{Match: 120, Mismatch: -1, Gap: -127},
	} {
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
		for m := 1; m <= 64; m++ {
			g := sc.MaxSpan(m) - m
			if want := (sc.Match*m - 1) / (-sc.Gap); g != want {
				t.Fatalf("%+v m=%d: MaxSpan allows %d inserted bases, want %d", sc, m, g, want)
			}
			if s := gappedScore(sc, m, g); s <= 0 {
				t.Errorf("%+v m=%d: an alignment spanning MaxSpan=%d bases scores %d, want > 0",
					sc, m, sc.MaxSpan(m), s)
			}
			if s := gappedScore(sc, m, g+1); s > 0 {
				t.Errorf("%+v m=%d: an alignment spanning MaxSpan+1=%d bases scores %d, want <= 0",
					sc, m, sc.MaxSpan(m)+1, s)
			}
		}
	}
}
