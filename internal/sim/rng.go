package sim

import (
	"fmt"
	"math/rand"
)

// RNG bundles the seeded random distributions the workload model draws
// from: uniform start times, normal read/write and extent sizes (Table 2:
// mean + deviation), and exponential inter-request think times (§2.2).
// Every simulation owns exactly one RNG so runs are reproducible.
//
// The generator counts its primitive draws (Draws) so determinism checks
// can compare stream positions: two runs that must be identical must
// also have drawn the same number of values. Zipf draws go through
// rand.Zipf's own consumption and are not counted; they remain
// deterministic per seed regardless.
type RNG struct {
	r     *rand.Rand
	draws uint64
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Uniform draws uniformly from [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("sim: uniform range [%g, %g) inverted", lo, hi))
	}
	g.draws++
	return lo + g.r.Float64()*(hi-lo)
}

// Exp draws from an exponential distribution with the given mean. A mean
// of zero returns zero (a file type with no think time).
func (g *RNG) Exp(mean float64) float64 {
	if mean < 0 {
		panic(fmt.Sprintf("sim: negative exponential mean %g", mean))
	}
	if mean == 0 {
		return 0
	}
	g.draws++
	return g.r.ExpFloat64() * mean
}

// Normal draws from N(mean, dev).
func (g *RNG) Normal(mean, dev float64) float64 {
	g.draws++
	return g.r.NormFloat64()*dev + mean
}

// SizeNormal draws a byte size from N(mean, dev) truncated below at min and
// rounded to a whole number of bytes. The paper's size parameters (rw
// size, extent size, initial size) are all "mean + deviation" draws that
// must come out positive.
func (g *RNG) SizeNormal(mean, dev float64, min int64) int64 {
	if min < 1 {
		min = 1
	}
	for i := 0; i < 64; i++ {
		v := int64(g.Normal(mean, dev) + 0.5)
		if v >= min {
			return v
		}
	}
	// Pathological parameters (dev >> mean): clamp rather than spin.
	return min
}

// SizeUniform draws a byte size uniformly from [mean-dev, mean+dev]
// truncated below at min — the paper's initialization phase selects file
// sizes "from a uniform distribution with mean equal to initial size and
// deviation of initial deviation" (§2.2).
func (g *RNG) SizeUniform(mean, dev float64, min int64) int64 {
	v := int64(g.Uniform(mean-dev, mean+dev) + 0.5)
	if v < min {
		return min
	}
	return v
}

// Intn draws uniformly from [0, n).
func (g *RNG) Intn(n int) int {
	g.draws++
	return g.r.Intn(n)
}

// Int63n draws uniformly from [0, n).
func (g *RNG) Int63n(n int64) int64 {
	g.draws++
	return g.r.Int63n(n)
}

// Float64 draws uniformly from [0, 1).
func (g *RNG) Float64() float64 {
	g.draws++
	return g.r.Float64()
}

// Draws returns the number of primitive draws made so far — a cheap
// fingerprint of stream position for determinism checks.
func (g *RNG) Draws() uint64 { return g.draws }

// NewZipf returns a Zipf-distributed generator over [0, imax] with
// parameter s > 1 (larger s = more skew), sharing this RNG's stream so
// runs stay reproducible. It returns nil for invalid parameters.
func (g *RNG) NewZipf(s float64, imax uint64) *rand.Zipf {
	return rand.NewZipf(g.r, s, 1, imax)
}

// Pick selects an index with probability proportional to weights[i].
// Weights must be non-negative with a positive sum.
func (g *RNG) Pick(weights []float64) int {
	var sum float64
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("sim: negative weight %g at %d", w, i))
		}
		sum += w
	}
	if sum <= 0 {
		panic("sim: Pick with zero total weight")
	}
	g.draws++
	x := g.r.Float64() * sum
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
