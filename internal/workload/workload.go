// Package workload generates deterministic keyed workloads for
// benchmarks and experiments. The central piece is a YCSB-style
// zipfian key generator: ambient-environment state (workspace
// documents, device registrations, sensor readouts) is read and
// rewritten with a hot head and a long tail, and a store's caches and
// leases have to show their behaviour under that skew, not under a
// uniform key stream that flatters it.
//
// Everything is seeded explicitly and uses private PRNG state, so two
// generators built with the same parameters emit identical sequences
// regardless of what else the process is doing.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Zipfian draws keys in [0, n) with P(k) ∝ 1/(k+1)^theta — the
// standard YCSB zipfian generator (Gray et al.'s rejection-free
// inversion). theta must be in (0, 1); 0.99 is YCSB's default, 0.9 a
// slightly milder skew. Key 0 is the hottest.
type Zipfian struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
	rng   *rand.Rand
}

// NewZipfian builds a zipfian generator over n keys with skew theta,
// seeded with seed. It panics on invalid parameters (a workload
// misconfiguration is a programming error, not a runtime condition).
func NewZipfian(seed int64, n int, theta float64) *Zipfian {
	if n <= 0 {
		panic(fmt.Sprintf("workload: zipfian over %d keys", n))
	}
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("workload: zipfian theta %v outside (0, 1)", theta))
	}
	zetan := zeta(n, theta)
	zeta2 := zeta(2, theta)
	z := &Zipfian{
		n:     n,
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		rng:   rand.New(rand.NewSource(seed)),
	}
	return z
}

// zeta computes the generalized harmonic number H_{n,theta}.
func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next key in [0, n).
func (z *Zipfian) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// N returns the key-space size.
func (z *Zipfian) N() int { return z.n }

// OpKind distinguishes the operations a Generator emits.
type OpKind int

const (
	// OpGet reads a key.
	OpGet OpKind = iota
	// OpPut overwrites a key.
	OpPut
)

// Op is one keyed operation of a generated stream.
type Op struct {
	Kind OpKind
	Key  int
}

// Generator emits a deterministic stream of keyed get/put operations:
// zipfian key choice, Bernoulli read/write mix. The op-kind PRNG is
// separate from the key PRNG so changing the mix does not perturb the
// key sequence.
type Generator struct {
	keys *Zipfian
	mix  *rand.Rand
	read float64
}

// NewGenerator builds an op stream over n keys with zipfian skew
// theta and the given read fraction in [0, 1].
func NewGenerator(seed int64, n int, theta, readFraction float64) *Generator {
	if readFraction < 0 || readFraction > 1 {
		panic(fmt.Sprintf("workload: read fraction %v outside [0, 1]", readFraction))
	}
	return &Generator{
		keys: NewZipfian(seed, n, theta),
		mix:  rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
		read: readFraction,
	}
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	kind := OpPut
	if g.mix.Float64() < g.read {
		kind = OpGet
	}
	return Op{Kind: kind, Key: g.keys.Next()}
}

// Path maps a key index to a store path under prefix, zero-padded so
// listings sort numerically.
func Path(prefix string, key int) string {
	return fmt.Sprintf("%s/%05d", prefix, key)
}
