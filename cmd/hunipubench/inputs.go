package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"hunipu"
	"hunipu/internal/datasets"
	"hunipu/internal/lsap"
)

// valueRange is the k of datasets.Gaussian: entries lie in [1, k·n].
const valueRange = 500

// subSeed derives an independent seed for one use of the run seed, so
// the pool, the schedule and each stream never share a random sequence.
func subSeed(seed int64, tag string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, tag, i)
	return int64(h.Sum64() >> 1)
}

// instance is one pooled cost matrix with its Jonker–Volgenant optimum.
type instance struct {
	costs [][]float64
	opt   float64
}

func rows(m *lsap.Matrix) [][]float64 {
	out := make([][]float64, m.N)
	for i := range out {
		out[i] = append([]float64(nil), m.Row(i)...)
	}
	return out
}

// optimum is the reference every answer is certified against: the CPU
// Jonker–Volgenant solver, which shares no code with the IPU engine or
// the auction solvers.
func optimum(ctx context.Context, costs [][]float64) (float64, error) {
	res, err := hunipu.SolveContext(ctx, costs, hunipu.OnCPU())
	if err != nil {
		return 0, fmt.Errorf("reference optimum: %w", err)
	}
	return res.Cost, nil
}

// makePool draws count Gaussian n×n instances and solves each for its
// optimum before any timing starts.
func makePool(ctx context.Context, seed int64, tag string, n, count int) ([]instance, error) {
	pool := make([]instance, count)
	for i := range pool {
		m, err := datasets.Gaussian(n, valueRange, subSeed(seed, tag, i))
		if err != nil {
			return nil, err
		}
		pool[i].costs = rows(m)
		if pool[i].opt, err = optimum(ctx, pool[i].costs); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// arrival is one request of an open-loop schedule.
type arrival struct {
	due  time.Duration // offset from the window start
	size int           // index into the mix's sizes
	inst int           // index into that size's pool
}

// mix is a size distribution over per-size instance pools.
type mix struct {
	sizes   []int
	weights []float64 // sum to 1
	pool    int       // instances per size
}

// openSchedule draws an open-loop schedule of exactly rate×window
// arrivals at independent uniform times, which is a Poisson process
// conditioned on its count. Sizes are dealt in their exact shares and
// each size cycles through its pool in shuffled rounds, so every seed
// offers the same load and the same mix; only the arrival pattern, the
// order and the instances vary.
func openSchedule(seed int64, tag string, rate float64, window time.Duration, m mix) []arrival {
	rng := rand.New(rand.NewSource(subSeed(seed, tag, 0)))
	count := int(rate*window.Seconds() + 0.5)
	dues := make([]time.Duration, count)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	sizes := make([]int, 0, count)
	cum := 0.0
	for k, w := range m.weights {
		from := int(cum*float64(count) + 0.5)
		cum += w
		to := int(cum*float64(count) + 0.5)
		if k == len(m.weights)-1 {
			to = count
		}
		for i := from; i < to; i++ {
			sizes = append(sizes, k)
		}
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	round := make([][]int, len(m.weights)) // what is left of each size's current round
	out := make([]arrival, count)
	for i, k := range sizes {
		if len(round[k]) == 0 {
			round[k] = rng.Perm(m.pool)
		}
		out[i] = arrival{due: dues[i], size: k, inst: round[k][0]}
		round[k] = round[k][1:]
	}
	return out
}

// frames is one tracking client's sequence of cost matrices: frame 0 is
// a Gaussian instance and each later frame redraws a fixed share of the
// previous frame's entries from the same distribution.
type frames struct {
	seed   int64
	stream int
	n      int
	rng    *rand.Rand
	cur    [][]float64
	index  int // index of cur in the sequence; -1 before the first frame
}

// redrawShare is the fraction of entries each frame redraws.
const redrawShare = 0.02

func newFrames(seed int64, stream, n int) (*frames, error) {
	m, err := datasets.Gaussian(n, valueRange, subSeed(seed, "frame0", stream))
	if err != nil {
		return nil, err
	}
	return &frames{
		seed: seed, stream: stream, n: n,
		rng:   rand.New(rand.NewSource(subSeed(seed, "drift", stream))),
		cur:   rows(m),
		index: -1,
	}, nil
}

// next advances to the following frame and returns it with its index.
// The returned matrix is overwritten by the call after.
func (f *frames) next() ([][]float64, int, error) {
	f.index++
	if f.index == 0 {
		return f.cur, 0, nil
	}
	src, err := datasets.Gaussian(f.n, valueRange, subSeed(f.seed, "redraw", f.stream<<32|f.index))
	if err != nil {
		return nil, 0, err
	}
	for k := int(redrawShare*float64(f.n*f.n) + 0.5); k > 0; k-- {
		p := f.rng.Intn(f.n * f.n)
		f.cur[p/f.n][p%f.n] = src.Data[p]
	}
	return f.cur, f.index, nil
}

// appendCosts appends costs as a JSON array of rows.
func appendCosts(b []byte, costs [][]float64) []byte {
	b = append(b, '[')
	for i, row := range costs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// solveBody assembles a POST /solve body around pre-encoded costs.
// deadlineMS 0 and empty quality or key are left out.
func solveBody(costs []byte, deadlineMS int64, quality, key string) []byte {
	b := make([]byte, 0, len(costs)+96)
	b = append(b, '{')
	if deadlineMS > 0 {
		b = append(b, `"deadline_ms":`...)
		b = strconv.AppendInt(b, deadlineMS, 10)
		b = append(b, ',')
	}
	if quality != "" {
		b = append(b, `"quality":`...)
		b = strconv.AppendQuote(b, quality)
		b = append(b, ',')
	}
	if key != "" {
		b = append(b, `"key":`...)
		b = strconv.AppendQuote(b, key)
		b = append(b, ',')
	}
	b = append(b, `"costs":`...)
	b = append(b, costs...)
	return append(b, '}')
}
