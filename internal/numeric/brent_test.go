package numeric

import (
	"math"
	"testing"
)

// TestBrentMinAbsoluteTolerance pins the documented contract: tol is an
// absolute x tolerance, independent of the magnitude of the minimizer. A
// relative reading would stop ~1e3 times too early near x≈1e3 and waste
// iterations near x≈1e-6.
func TestBrentMinAbsoluteTolerance(t *testing.T) {
	cases := []struct {
		name      string
		lo, hi, c float64
		scale     float64
		tol       float64
	}{
		{"near 1e3", 1, 5000, 1000.123456, 10, 1e-3},
		{"near 1e-6", 0, 1e-3, 1.234567e-6, 1e-6, 1e-9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Non-quadratic, so parabolic steps alone do not land exactly.
			f := func(x float64) float64 { return math.Cosh((x-tc.c)/tc.scale) + 0.1*math.Pow((x-tc.c)/tc.scale, 4) }
			res := BrentMin(f, tc.lo, tc.hi, tc.tol, 200)
			if d := math.Abs(res.X - tc.c); d > tc.tol {
				t.Fatalf("argmin %.12g is %.3g from %.12g, want within tol %g (%d iters)", res.X, d, tc.c, tc.tol, res.Iters)
			}
		})
	}
}
