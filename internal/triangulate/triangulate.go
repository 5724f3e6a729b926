// Package triangulate implements audio triangulation — named twice by
// the report (§1.2's "sound triangulation systems" among the user
// interaction services, §9's future directions) — locating a sound
// source (a speaking user) from its arrival times at a microphone
// array, so services can aim cameras at whoever is talking or resolve
// "nearest device" to the speaker's true position.
//
// The solver is classical TDOA (time difference of arrival)
// multilateration: with microphone positions p_i and measured arrival
// times t_i, the source s minimizes the squared residuals of
// pairwise range differences against c·(t_i−t_j). The non-convex
// cost surface is seeded with a coarse lattice search over the
// array's bounding volume and refined with damped Gauss–Newton
// (numerical Jacobian, backtracking line search).
package triangulate

import (
	"fmt"
	"math"
	"sort"

	"ace/internal/roomdb"
)

// SpeedOfSound is the propagation speed used by both the simulator
// and the solver (m/s, dry air at ~20 °C).
const SpeedOfSound = 343.0

// Mic is one microphone of the array.
type Mic struct {
	Name string
	Pos  roomdb.Point
}

// Arrival is one measured arrival time at a microphone.
type Arrival struct {
	Mic  string
	Time float64 // seconds, common clock
}

// Array is a calibrated microphone array.
type Array struct {
	mics []Mic
}

// NewArray builds an array; at least 4 microphones are needed for an
// unambiguous 3-D fix.
func NewArray(mics ...Mic) (*Array, error) {
	if len(mics) < 4 {
		return nil, fmt.Errorf("triangulate: need ≥4 microphones, have %d", len(mics))
	}
	return &Array{mics: append([]Mic(nil), mics...)}, nil
}

func (a *Array) pos(name string) (roomdb.Point, bool) {
	for _, m := range a.mics {
		if m.Name == name {
			return m.Pos, true
		}
	}
	return roomdb.Point{}, false
}

func distance(a, b roomdb.Point) float64 {
	dx, dy, dz := a.X-b.X, a.Y-b.Y, a.Z-b.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Simulate produces the arrival times a source at src emitting at
// emitTime would generate, with additive per-mic timing noise (std
// seconds) from the noise function (pass nil for exact times).
func (a *Array) Simulate(src roomdb.Point, emitTime float64, noise func() float64) []Arrival {
	out := make([]Arrival, len(a.mics))
	for i, m := range a.mics {
		t := emitTime + distance(src, m.Pos)/SpeedOfSound
		if noise != nil {
			t += noise()
		}
		out[i] = Arrival{Mic: m.Name, Time: t}
	}
	return out
}

// Fix is a solved source location.
type Fix struct {
	Pos roomdb.Point
	// Residual is the RMS range-difference error in meters; large
	// residuals mean inconsistent measurements.
	Residual float64
	// Iterations the solver used.
	Iterations int
}

// Locate solves for the source position from arrival measurements.
// Arrivals for unknown microphones are ignored; at least 4 known
// microphones must report.
func (a *Array) Locate(arrivals []Arrival) (Fix, error) {
	type obs struct {
		pos roomdb.Point
		t   float64
	}
	var observations []obs
	for _, arr := range arrivals {
		if p, ok := a.pos(arr.Mic); ok {
			observations = append(observations, obs{pos: p, t: arr.Time})
		}
	}
	if len(observations) < 4 {
		return Fix{}, fmt.Errorf("triangulate: only %d usable arrivals, need ≥4", len(observations))
	}

	// Residual vector: pairwise range differences vs measured TDOA,
	// referenced to observation 0 (n−1 independent pairs).
	ref := observations[0]
	residuals := func(s roomdb.Point) []float64 {
		out := make([]float64, len(observations)-1)
		d0 := distance(s, ref.pos)
		for i, o := range observations[1:] {
			measured := SpeedOfSound * (o.t - ref.t)
			predicted := distance(s, o.pos) - d0
			out[i] = predicted - measured
		}
		return out
	}

	cost := func(s roomdb.Point) float64 {
		var ss float64
		for _, v := range residuals(s) {
			ss += v * v
		}
		return ss
	}

	// The TDOA cost surface is non-convex (hyperbolic sheets) with
	// shallow local minima, so seed damped Gauss–Newton from a coarse
	// lattice over the array's expanded bounding volume and refine
	// from the best few lattice points.
	lo := observations[0].pos
	hi := observations[0].pos
	for _, o := range observations[1:] {
		lo.X = math.Min(lo.X, o.pos.X)
		lo.Y = math.Min(lo.Y, o.pos.Y)
		lo.Z = math.Min(lo.Z, o.pos.Z)
		hi.X = math.Max(hi.X, o.pos.X)
		hi.Y = math.Max(hi.Y, o.pos.Y)
		hi.Z = math.Max(hi.Z, o.pos.Z)
	}
	const margin = 2.0
	lo.X -= margin
	lo.Y -= margin
	lo.Z -= margin
	hi.X += margin
	hi.Y += margin
	hi.Z += margin

	const lattice = 9
	type seed struct {
		p roomdb.Point
		c float64
	}
	seeds := make([]seed, 0, lattice*lattice*lattice)
	for i := 0; i < lattice; i++ {
		for j := 0; j < lattice; j++ {
			for k := 0; k < lattice; k++ {
				p := roomdb.Point{
					X: lo.X + (hi.X-lo.X)*float64(i)/(lattice-1),
					Y: lo.Y + (hi.Y-lo.Y)*float64(j)/(lattice-1),
					Z: lo.Z + (hi.Z-lo.Z)*float64(k)/(lattice-1),
				}
				seeds = append(seeds, seed{p: p, c: cost(p)})
			}
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].c < seeds[j].c })

	best := Fix{Residual: math.Inf(1)}
	totalIter := 0
	const refineFrom = 12
	for i := 0; i < refineFrom && i < len(seeds); i++ {
		s, iters := gaussNewton(seeds[i].p, residuals, cost)
		totalIter += iters
		rms := math.Sqrt(cost(s) / float64(len(observations)-1))
		if rms < best.Residual {
			best = Fix{Pos: s, Residual: rms}
		}
		if best.Residual < 1e-9 {
			break // exact fix found
		}
	}
	// Escape shallow local minima: if the best refined fix still
	// carries residual, re-seed from a fine local lattice around it
	// (the global minimum is usually within a couple of meters, often
	// differing mainly in the weakly observed axis).
	if best.Residual > 1e-9 {
		const span = 2.5
		const fine = 5
		for i := 0; i < fine; i++ {
			for j := 0; j < fine; j++ {
				for k := 0; k < fine; k++ {
					p := roomdb.Point{
						X: best.Pos.X - span/2 + span*float64(i)/(fine-1),
						Y: best.Pos.Y - span/2 + span*float64(j)/(fine-1),
						Z: best.Pos.Z - span/2 + span*float64(k)/(fine-1),
					}
					s, iters := gaussNewton(p, residuals, cost)
					totalIter += iters
					rms := math.Sqrt(cost(s) / float64(len(observations)-1))
					if rms < best.Residual {
						best = Fix{Pos: s, Residual: rms}
					}
					if best.Residual < 1e-9 {
						best.Iterations = totalIter
						return best, nil
					}
				}
			}
		}
	}
	best.Iterations = totalIter
	return best, nil
}

// gaussNewton runs damped Gauss–Newton with a backtracking line
// search from one start, returning the refined point and iteration
// count.
func gaussNewton(s roomdb.Point, residuals func(roomdb.Point) []float64, cost func(roomdb.Point) float64) (roomdb.Point, int) {
	const (
		maxIter = 60
		eps     = 1e-6 // numerical differentiation step (meters)
		tol     = 1e-10
	)
	iter := 0
	for ; iter < maxIter; iter++ {
		r := residuals(s)
		m := len(r)
		// Numerical Jacobian: m×3.
		J := make([][3]float64, m)
		for axis := 0; axis < 3; axis++ {
			sp := s
			switch axis {
			case 0:
				sp.X += eps
			case 1:
				sp.Y += eps
			case 2:
				sp.Z += eps
			}
			rp := residuals(sp)
			for i := 0; i < m; i++ {
				J[i][axis] = (rp[i] - r[i]) / eps
			}
		}
		// Normal equations JᵀJ Δ = −Jᵀr with Levenberg damping.
		var JTJ [3][3]float64
		var JTr [3]float64
		for i := 0; i < m; i++ {
			for a1 := 0; a1 < 3; a1++ {
				JTr[a1] += J[i][a1] * r[i]
				for a2 := 0; a2 < 3; a2++ {
					JTJ[a1][a2] += J[i][a1] * J[i][a2]
				}
			}
		}
		const lambda = 1e-9
		for a1 := 0; a1 < 3; a1++ {
			JTJ[a1][a1] += lambda
		}
		delta, ok := solve3(JTJ, [3]float64{-JTr[0], -JTr[1], -JTr[2]})
		if !ok {
			break
		}
		// Backtracking line search: shrink the step until the cost
		// decreases (full Gauss–Newton steps diverge on hyperbolic
		// residual surfaces).
		before := cost(s)
		step := 1.0
		var next roomdb.Point
		improved := false
		for k := 0; k < 24; k++ {
			next = roomdb.Point{X: s.X + step*delta[0], Y: s.Y + step*delta[1], Z: s.Z + step*delta[2]}
			if cost(next) < before {
				improved = true
				break
			}
			step /= 2
		}
		if !improved {
			break
		}
		moved := step * step * (delta[0]*delta[0] + delta[1]*delta[1] + delta[2]*delta[2])
		s = next
		if moved < tol*tol {
			break
		}
	}
	return s, iter + 1
}

// solve3 solves a 3×3 linear system by Gaussian elimination with
// partial pivoting.
func solve3(A [3][3]float64, b [3]float64) ([3]float64, bool) {
	var M [3][4]float64
	for i := 0; i < 3; i++ {
		copy(M[i][:3], A[i][:])
		M[i][3] = b[i]
	}
	for col := 0; col < 3; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(M[r][col]) > math.Abs(M[p][col]) {
				p = r
			}
		}
		if math.Abs(M[p][col]) < 1e-15 {
			return [3]float64{}, false
		}
		M[col], M[p] = M[p], M[col]
		// Eliminate.
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := M[r][col] / M[col][col]
			for c := col; c < 4; c++ {
				M[r][c] -= f * M[col][c]
			}
		}
	}
	var x [3]float64
	for i := 0; i < 3; i++ {
		x[i] = M[i][3] / M[i][i]
	}
	return x, true
}
