package numeric

import "math"

// NewtonResult holds the outcome of a safeguarded Newton–Raphson
// maximization.
type NewtonResult struct {
	X          float64 // argmax
	Evals      int     // derivative evaluations
	Iters      int     // Newton steps taken
	Bisections int     // steps replaced by bisection
	AtBound    bool    // the maximum lies at lo or hi (the slope points outward there)
	CapHit     bool    // maxIter evaluations ran out before convergence
}

// NewtonMax maximizes a smooth function on [lo, hi] from its first and
// second derivatives, starting at x0. df returns the first and second derivatives at x; the
// function value itself is never needed, which is what makes the method
// cheap for log-likelihoods whose derivatives are ratios of sums (no log).
// tol is an absolute x tolerance; maxIter bounds the derivative evaluations
// after the first.
//
// Plain Newton iteration is unsafe on placement likelihoods: they are
// concave only near the optimum, and steep next to a zero-length branch end.
// Four safeguards keep every step honest:
//
//   - a derivative-sign bracket [a, b] that always contains the maximum
//     (a positive slope moves a up, a negative one moves b down);
//   - a Newton step is taken only when it stays inside the bracket, halves
//     the previous step and comes from a concave point (second derivative
//     < 0); otherwise, while the uphill bracket end is still a domain bound
//     with unknown slope, that bound is tried, so an optimum at the bound
//     costs one evaluation instead of a bisection sequence;
//   - any other rejected step becomes a bisection, which bounds the
//     iteration count by the bracket's halvings;
//   - a step smaller than tol is not trusted by itself: the derivative is
//     probed tol beyond x, uphill, and convergence is declared only when its
//     sign changes there. Without the probe the iteration can stop on a tiny
//     step next to a steep end while the optimum is still far away.
func NewtonMax(df func(x float64) (d1, d2 float64), x0, lo, hi, tol float64, maxIter int) NewtonResult {
	if lo > hi {
		lo, hi = hi, lo
	}
	var r NewtonResult
	eval := func(x float64) (float64, float64) {
		r.Evals++
		return df(x)
	}
	x := math.Min(math.Max(x0, lo), hi)
	a, b := lo, hi
	aKnown, bKnown := false, false // slope sign observed at the bracket end
	d1, d2 := eval(x)
	prev := hi - lo // length of the last step; a Newton step must halve it
	for it := 0; it < maxIter; it++ {
		if d1 == 0 || math.IsNaN(d1) {
			r.X = x
			return r
		}
		if d1 > 0 {
			a, aKnown = x, true
			if x >= hi {
				r.X, r.AtBound = hi, true
				return r
			}
		} else {
			b, bKnown = x, true
			if x <= lo {
				r.X, r.AtBound = lo, true
				return r
			}
		}
		step := -d1 / d2
		next := x + step
		concave := d2 < 0
		inside := concave && next > a && next < b
		if aKnown && bKnown && b-a <= tol {
			if !inside {
				next = 0.5 * (a + b)
			}
			r.X = next
			return r
		}
		switch {
		case inside && math.Abs(step) <= 0.5*prev:
			r.Iters++
			if math.Abs(step) < tol {
				// Confirm the sign change within tol before stopping.
				p := math.Min(math.Max(x+math.Copysign(tol, d1), lo), hi)
				pd1, pd2 := eval(p)
				if pd1 == 0 || (pd1 > 0) != (d1 > 0) {
					r.X = next
					return r
				}
				prev = tol
				x, d1, d2 = p, pd1, pd2
				continue
			}
		case d1 > 0 && !bKnown:
			next = hi
		case d1 < 0 && !aKnown:
			next = lo
		default:
			next = 0.5 * (a + b)
			r.Bisections++
		}
		prev = math.Abs(next - x)
		x = next
		d1, d2 = eval(x)
	}
	r.X = x
	r.CapHit = true
	return r
}
