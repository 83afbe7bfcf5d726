package chaos

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestWANMatrixDeterministic: the matrix is a pure function of (spec, n,
// seed) — the chaos replay contract — and the seed actually matters.
func TestWANMatrixDeterministic(t *testing.T) {
	t.Parallel()
	s := WANSpec{Regions: 3, DropProb: 0.1}
	a, b := s.Matrix(7, 42), s.Matrix(7, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different matrices")
	}
	if reflect.DeepEqual(a, s.Matrix(7, 43)) {
		t.Fatal("different seeds produced identical matrices")
	}
}

// TestWANMatrixShape pins the topology the spec promises: contiguous
// populated regions, clean fast intra-region links, lossy slower
// cross-region links that scale with region distance, uphill (low→high
// region) strictly slower than downhill under Asym > 1, and every link
// under MaxCeiling.
func TestWANMatrixShape(t *testing.T) {
	t.Parallel()
	const n = 9
	s := WANSpec{Regions: 3, DropProb: 0.2, DupProb: 0.1, BandwidthBps: 1 << 20}
	if err := s.Validate(n); err != nil {
		t.Fatal(err)
	}
	m := s.Matrix(n, 7)
	ceiling := s.MaxCeiling()

	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		r := s.Region(i, n)
		seen[r] = true
		if i > 0 && r < s.Region(i-1, n) {
			t.Fatalf("regions not contiguous: node %d in %d after %d", i, r, s.Region(i-1, n))
		}
	}
	if len(seen) != 3 {
		t.Fatalf("only %d of 3 regions populated", len(seen))
	}

	d := s.withDefaults()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := m[i][j]
			if p.MaxDelay > ceiling {
				t.Fatalf("link %d→%d delay %v exceeds MaxCeiling %v", i, j, p.MaxDelay, ceiling)
			}
			if p.MinDelay > p.MaxDelay {
				t.Fatalf("link %d→%d has Min %v > Max %v", i, j, p.MinDelay, p.MaxDelay)
			}
			if s.Region(i, n) == s.Region(j, n) {
				if p.DropProb != 0 || p.DupProb != 0 || p.BandwidthBps != 0 {
					t.Fatalf("intra-region link %d→%d is not clean: %+v", i, j, p)
				}
				if p.MaxDelay > time.Duration(1.25*float64(d.Local)) {
					t.Fatalf("intra-region link %d→%d slower than Local: %v", i, j, p.MaxDelay)
				}
			} else {
				if p.DropProb != s.DropProb || p.DupProb != s.DupProb || p.BandwidthBps != s.BandwidthBps {
					t.Fatalf("cross-region link %d→%d lost its misbehaviour: %+v", i, j, p)
				}
			}
		}
	}

	// Uphill beats downhill for every cross-region pair: with Asym=2 the
	// uphill ceiling is at least 2·0.75/1.25 = 1.2× the downhill one even
	// at the worst per-link scale draw.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if s.Region(i, n) < s.Region(j, n) && m[i][j].MaxDelay <= m[j][i].MaxDelay {
				t.Fatalf("uphill %d→%d (%v) not slower than downhill (%v)",
					i, j, m[i][j].MaxDelay, m[j][i].MaxDelay)
			}
		}
	}

	// Distance scaling: the two-region hop dwarfs the one-region hop in the
	// same direction from the same node (scale spread cannot mask a 2× gap
	// … 2·0.75 > 1·1.25).
	if m[0][8].MaxDelay <= m[0][4].MaxDelay {
		t.Fatalf("2-region hop (%v) not slower than 1-region hop (%v)",
			m[0][8].MaxDelay, m[0][4].MaxDelay)
	}
}

// TestWANSpecValidate is the negative table: every way out of the envelope
// must yield ErrBadWANSpec, never a silently repaired spec.
func TestWANSpecValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		spec WANSpec
		n    int
		ok   bool
	}{
		{"minimal", WANSpec{Regions: 2}, 5, true},
		{"full", WANSpec{Regions: 3, Local: time.Millisecond, Cross: 5 * time.Millisecond, Asym: 3, Jitter: 0.2, DropProb: 0.3, DupProb: 0.1, BandwidthBps: 1000}, 6, true},
		{"one-region", WANSpec{Regions: 1}, 5, false},
		{"more-regions-than-nodes", WANSpec{Regions: 6}, 5, false},
		{"negative-delay", WANSpec{Regions: 2, Local: -time.Millisecond}, 5, false},
		{"cross-below-local", WANSpec{Regions: 2, Local: 5 * time.Millisecond, Cross: time.Millisecond}, 5, false},
		{"asym-below-one", WANSpec{Regions: 2, Asym: 0.5}, 5, false},
		{"jitter-at-one", WANSpec{Regions: 2, Jitter: 1}, 5, false},
		{"unfair-loss", WANSpec{Regions: 2, DropProb: 0.5}, 5, false},
		{"unfair-dup", WANSpec{Regions: 2, DupProb: 0.6}, 5, false},
		{"negative-bandwidth", WANSpec{Regions: 2, BandwidthBps: -1}, 5, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			err := tc.spec.Validate(tc.n)
			if tc.ok && err != nil {
				t.Fatalf("legal spec rejected: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrBadWANSpec) {
				t.Fatalf("error = %v, want ErrBadWANSpec", err)
			}
		})
	}
}
