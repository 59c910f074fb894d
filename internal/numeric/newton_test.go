package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

// jcLogLik is a one-branch Jukes-Cantor log-likelihood with n same-state and
// m different-state sites: the shape of a pendant-length objective.
func jcLogLik(n, m float64) (f func(t float64) float64, df func(t float64) (float64, float64)) {
	f = func(t float64) float64 {
		e := math.Exp(-4 * t / 3)
		return n*math.Log(0.25+0.75*e) + m*math.Log(0.25-0.25*e)
	}
	df = func(t float64) (float64, float64) {
		e := math.Exp(-4 * t / 3)
		s, d := 0.25+0.75*e, 0.25-0.25*e
		s1, d1 := -e, e/3
		s2, d2 := 4*e/3, -4*e/9
		g1 := n*s1/s + m*d1/d
		g2 := n*(s2/s-(s1/s)*(s1/s)) + m*(d2/d-(d1/d)*(d1/d))
		return g1, g2
	}
	return f, df
}

func TestNewtonMaxInteriorOptimum(t *testing.T) {
	// Analytic JC69 optimum: p = m/(n+m), t* = -3/4 log(1 - 4p/3).
	for _, nm := range [][2]float64{{90, 10}, {60, 15}, {300, 2}, {50, 30}} {
		_, df := jcLogLik(nm[0], nm[1])
		p := nm[1] / (nm[0] + nm[1])
		want := -0.75 * math.Log(1-4*p/3)
		for _, x0 := range []float64{1e-8, 0.01, 0.3, 2} {
			r := NewtonMax(df, x0, 1e-8, 4, 1e-10, 64)
			if math.Abs(r.X-want) > 1e-9 || r.AtBound || r.CapHit {
				t.Fatalf("n=%v m=%v x0=%v: %+v, want X=%.12g", nm[0], nm[1], x0, r, want)
			}
		}
	}
}

func TestNewtonMaxOptimumAtBound(t *testing.T) {
	// No differing sites: the likelihood increases toward t → 0.
	_, df := jcLogLik(100, 0)
	r := NewtonMax(df, 0.5, 1e-8, 2, 1e-9, 64)
	if r.X != 1e-8 || !r.AtBound {
		t.Fatalf("lower-bound optimum: %+v", r)
	}
	// Increasing objective on [0, 1]: the upper bound, found by trying it.
	r = NewtonMax(func(x float64) (float64, float64) { return 1 + x, -0.1 }, 0.2, 0, 1, 1e-9, 64)
	if r.X != 1 || !r.AtBound || r.Evals > 3 {
		t.Fatalf("upper-bound optimum: %+v", r)
	}
}

func TestNewtonMaxConvexStart(t *testing.T) {
	// Starting deep in the convex flank (f'' > 0) must fall back to
	// bisection and still converge.
	_, df := jcLogLik(80, 20)
	r := NewtonMax(df, 3.9, 1e-8, 4, 1e-10, 64)
	want := -0.75 * math.Log(1-4*0.2/3)
	if math.Abs(r.X-want) > 1e-9 || r.Bisections == 0 || r.Evals > 16 {
		t.Fatalf("convex start: %+v, want %.12g within 16 evaluations, with bisections", r, want)
	}
}

// TestNewtonMaxSteepEndSignCheck: next to a steep wall the curvature is so
// large that Newton steps shrink below tol while the slope still points
// away from the wall, toward an optimum far off. The sign probe must reject
// that as convergence.
func TestNewtonMaxSteepEndSignCheck(t *testing.T) {
	const c, wall, w = 0.3, 0.9, 1e-12
	df := func(x float64) (float64, float64) {
		// f = −(x−c)² − w·exp((x−wall)/w)
		e := math.Exp((x - wall) / w)
		return -2*(x-c) - e, -2 - e/w
	}
	r := NewtonMax(df, wall, 0, 1, 1e-9, 200)
	if math.Abs(r.X-c) > 1e-9 {
		t.Fatalf("steep end: %+v, want %.12g", r, c)
	}
}

func TestNewtonMaxCapHit(t *testing.T) {
	_, df := jcLogLik(90, 10)
	r := NewtonMax(df, 3, 1e-8, 4, 1e-14, 2)
	if !r.CapHit || r.Evals != 3 {
		t.Fatalf("cap: %+v", r)
	}
}

// Property: on random unimodal smooth objectives the result is within tol
// of the true maximizer and never leaves [lo, hi].
func TestNewtonMaxProperty(t *testing.T) {
	if err := quick.Check(func(seed uint32) bool {
		c := float64(seed%1000)/500 - 0.5 // may fall outside [0, 1]
		w := 0.05 + float64(seed%97)/40
		df := func(x float64) (float64, float64) {
			// f = −w·cosh((x−c)/w)
			u := (x - c) / w
			return -math.Sinh(u), -math.Cosh(u) / w
		}
		r := NewtonMax(df, float64(seed%13)/13, 0, 1, 1e-9, 200)
		want := math.Min(math.Max(c, 0), 1)
		return r.X >= 0 && r.X <= 1 && math.Abs(r.X-want) <= 1e-9 && !r.CapHit
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
