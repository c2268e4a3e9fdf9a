package nnp

import (
	"testing"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
)

// naiveForward is the reference the float64 kernel must reproduce bit
// for bit on one row: per layer, zero-initialised accumulators,
// ascending-k accumulation that skips zero inputs, then the bias, then
// ReLU on hidden layers.
func naiveForward(n *Network, x []float64) []float64 {
	cur := x
	for _, l := range n.Layers {
		next := make([]float64, l.W.Cols)
		for k, v := range cur {
			if v == 0 {
				continue
			}
			for j := range next {
				next[j] += v * l.W.At(k, j)
			}
		}
		for j := range next {
			next[j] += l.B[j]
			if l.Relu && next[j] < 0 {
				next[j] = 0
			}
		}
		cur = next
	}
	return cur
}

// naiveForward32 is naiveForward in float32.
func naiveForward32(q *Network32, x []float32) []float32 {
	cur := x
	for _, l := range q.layers {
		next := make([]float32, l.w.Cols)
		for k, v := range cur {
			if v == 0 {
				continue
			}
			for j := range next {
				next[j] += v * l.w.Row(k)[j]
			}
		}
		for j := range next {
			next[j] += l.b[j]
			if l.relu && next[j] < 0 {
				next[j] = 0
			}
		}
		cur = next
	}
	return cur
}

// kernelInput builds an m×dim input where about a quarter of the entries
// and every fifth row are exact zeros: post-ReLU activations are sparse,
// and the zero-skip is part of the bit-identity contract.
func kernelInput(m, dim int, seed uint64) Matrix {
	x := NewMatrix(m, dim)
	r := rng.New(seed)
	for i := 0; i < m; i++ {
		if i%5 == 2 {
			continue
		}
		for j, row := 0, x.Row(i); j < dim; j++ {
			if r.Uint64()%4 != 0 {
				row[j] = r.NormFloat64()
			}
		}
	}
	return x
}

var kernelRowCounts = []int{0, 1, 3, 4, 5, 31, 32, 33, 65}

// TestForwardMatchesNaive pins Network.Forward, row by row, to the naive
// reference for row counts around the kernel's four-row unrolling and
// RegionEnergy's tile size, on a scalar head and a multi-output network.
func TestForwardMatchesNaive(t *testing.T) {
	for _, sizes := range [][]int{{24, 40, 17, 1}, {10, 7, 3}} {
		n := NewNetwork(sizes, rng.New(21))
		for _, m := range kernelRowCounts {
			x := kernelInput(m, sizes[0], uint64(m)+22)
			out := n.Forward(x)
			if out.Rows != m || out.Cols != n.OutputDim() {
				t.Fatalf("sizes %v, %d rows: output %dx%d", sizes, m, out.Rows, out.Cols)
			}
			for i := 0; i < m; i++ {
				want := naiveForward(n, x.Row(i))
				for j, v := range out.Row(i) {
					if v != want[j] {
						t.Fatalf("sizes %v, %d rows: row %d col %d = %v, naive %v", sizes, m, i, j, v, want[j])
					}
				}
			}
		}
	}
}

// TestForward32MatchesNaive pins Network32.Forward to the float32 naive
// reference over the same row counts.
func TestForward32MatchesNaive(t *testing.T) {
	for _, sizes := range [][]int{{24, 40, 17, 1}, {10, 7, 3}} {
		q := NewNetwork(sizes, rng.New(23)).Quantize()
		for _, m := range kernelRowCounts {
			x := ToF32(kernelInput(m, sizes[0], uint64(m)+24))
			out := q.Forward(x)
			if out.Rows != m || out.Cols != sizes[len(sizes)-1] {
				t.Fatalf("sizes %v, %d rows: output %dx%d", sizes, m, out.Rows, out.Cols)
			}
			for i := 0; i < m; i++ {
				want := naiveForward32(q, x.Row(i))
				for j, v := range out.Row(i) {
					if v != want[j] {
						t.Fatalf("sizes %v, %d rows: row %d col %d = %v, naive %v", sizes, m, i, j, v, want[j])
					}
				}
			}
		}
	}
}

// naiveRegionEnergy is the reference for RegionEnergy: one atom at a
// time, summed element by element in site order, then the element's
// reference energy once per atom. With q set, each normalised row is
// rounded to float32 and run through the quantised head.
func naiveRegionEnergy(p *Potential, q *Potential32, tb *encoding.Tables, tab *feature.Table, vet encoding.VET) float64 {
	dim := p.Desc.Dim()
	raw, x, x32 := make([]float64, dim), make([]float64, dim), make([]float32, dim)
	total := 0.0
	for e := 0; e < lattice.NumElements; e++ {
		rows := 0
		for i := 0; i < tb.NRegion; i++ {
			if vet[i] != lattice.Species(e) {
				continue
			}
			feature.ComputeSite(tb, tab, vet, i, raw)
			p.NormalizeInto(x, raw)
			if q == nil {
				total += naiveForward(p.Nets[e], x)[0]
			} else {
				for c, v := range x {
					x32[c] = float32(v)
				}
				total += float64(naiveForward32(q.Nets[e], x32)[0])
			}
			rows++
		}
		if rows > 0 {
			total += float64(rows) * p.ERef[e]
		}
	}
	return total
}

// TestRegionEnergyMatchesNaive pins the tiled RegionEnergy to the
// per-atom reference sum, in both kernels, on regions whose Fe site count
// spans several tiles.
func TestRegionEnergyMatchesNaive(t *testing.T) {
	pot, tb, tab := stdPotential([]int{64, 24, 12, 1}, 25)
	pot.ERef = [lattice.NumElements]float64{-4.1, -3.7}
	pot.FeatMean = make([]float64, pot.Desc.Dim())
	pot.FeatStd = make([]float64, pot.Desc.Dim())
	r := rng.New(26)
	for c := range pot.FeatMean {
		pot.FeatMean[c] = 0.1 * r.NormFloat64()
		pot.FeatStd[c] = 0.5 + r.Float64()
	}
	q := pot.Quantize()
	s, s32 := pot.NewScratch(tb), pot.NewScratch32(tb, q)
	for trial := 0; trial < 4; trial++ {
		vet := tb.NewVET()
		fe := 0
		for i := range vet {
			vet[i] = lattice.Fe
			if r.Float64() < 0.3 {
				vet[i] = lattice.Cu
			}
			if i < tb.NRegion && vet[i] == lattice.Fe {
				fe++
			}
		}
		vet[0] = lattice.Vacancy
		if fe <= 2*tileRows {
			t.Fatalf("only %d Fe region sites; the test needs more than two tiles", fe)
		}
		if got, want := pot.RegionEnergy(tb, tab, vet, s), naiveRegionEnergy(pot, nil, tb, tab, vet); got != want {
			t.Fatalf("trial %d: RegionEnergy %v, naive %v", trial, got, want)
		}
		if got, want := pot.RegionEnergy(tb, tab, vet, s32), naiveRegionEnergy(pot, q, tb, tab, vet); got != want {
			t.Fatalf("trial %d: float32 RegionEnergy %v, naive %v", trial, got, want)
		}
	}
}
