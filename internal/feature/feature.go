// Package feature implements the atomic feature descriptor of Sec. 3.4:
// the exponential-style descriptor of Oganov et al.,
//
//	f(r | p, q) = Σ_j exp(−(r_j/p)^q),
//
// summed over neighbours j within the cutoff. Each atom is described by an
// N_dim × N_el vector: one channel per (p, q) hyper-parameter pair per
// neighbour element. With the paper's 32 (p, q) sets and two elements
// (Fe, Cu) this yields the 64 input channels of the NNP.
//
// Two evaluation paths exist:
//
//   - The tabulated lattice path (Table, ComputeRegion): in AKMC all atoms
//     sit on lattice sites, so interatomic distances take only a handful
//     of discrete values and exp(−(r/p)^q) can be precomputed into TABLE
//     (Eq. 6). This is the fast path used by the KMC engines.
//   - The continuous path (Descriptor.Pairwise): used when generating and
//     fitting training structures, whose atoms carry small displacements;
//     it also supplies the analytic radial derivative needed for forces.
package feature

import (
	"fmt"
	"math"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/lattice"
)

// PQ is one (p, q) hyper-parameter pair of the Oganov descriptor.
type PQ struct{ P, Q float64 }

// StandardPQ returns the paper's 32 hyper-parameter sets (Sec. 4.1.1):
// p descends from 4.2 in steps of −0.1 and q ascends from 1.85 in steps
// of 0.05.
func StandardPQ() []PQ {
	out := make([]PQ, 32)
	for i := range out {
		out[i] = PQ{P: 4.2 - 0.1*float64(i), Q: 1.85 + 0.05*float64(i)}
	}
	return out
}

// Descriptor evaluates the Oganov feature set for a fixed element count.
type Descriptor struct {
	PQ   []PQ
	NEl  int
	Rcut float64
}

// NewDescriptor constructs a descriptor. It panics on empty hyper-
// parameters or non-positive cutoff.
func NewDescriptor(pq []PQ, nEl int, rcut float64) *Descriptor {
	if len(pq) == 0 || nEl <= 0 || rcut <= 0 {
		panic("feature: invalid descriptor parameters")
	}
	for _, s := range pq {
		if s.P <= 0 || s.Q <= 0 {
			panic(fmt.Sprintf("feature: invalid (p,q) = %+v", s))
		}
	}
	return &Descriptor{PQ: pq, NEl: nEl, Rcut: rcut}
}

// Standard returns the paper's production descriptor: 32 (p, q) sets,
// two elements, the given cutoff.
func Standard(rcut float64) *Descriptor {
	return NewDescriptor(StandardPQ(), lattice.NumElements, rcut)
}

// NDim returns the number of (p, q) channels per element.
func (d *Descriptor) NDim() int { return len(d.PQ) }

// Dim returns the full per-atom feature dimension N_dim × N_el.
func (d *Descriptor) Dim() int { return len(d.PQ) * d.NEl }

// Channel returns the feature index of (neighbour element, pq index).
func (d *Descriptor) Channel(el, pq int) int { return el*len(d.PQ) + pq }

// Eval writes exp(−(r/p)^q) for every (p, q) into out (length NDim).
func (d *Descriptor) Eval(r float64, out []float64) {
	for i, s := range d.PQ {
		out[i] = math.Exp(-math.Pow(r/s.P, s.Q))
	}
}

// EvalDeriv writes the value and radial derivative d/dr of each channel.
// d/dr exp(−(r/p)^q) = −(q/p)·(r/p)^(q−1)·exp(−(r/p)^q).
func (d *Descriptor) EvalDeriv(r float64, val, deriv []float64) {
	for i, s := range d.PQ {
		x := r / s.P
		e := math.Exp(-math.Pow(x, s.Q))
		val[i] = e
		deriv[i] = -(s.Q / s.P) * math.Pow(x, s.Q-1) * e
	}
}

// Table is the precomputed TABLE of Eq. (6): one row per quantised
// lattice distance, one column per (p, q) channel.
type Table struct {
	desc  *Descriptor
	nDist int
	vals  []float64 // nDist × NDim, row-major
}

// NewTable tabulates the descriptor over the given discrete distances
// (Å), typically encoding.Tables.Distances.
func NewTable(d *Descriptor, distances []float64) *Table {
	t := &Table{desc: d, nDist: len(distances), vals: make([]float64, len(distances)*d.NDim())}
	row := make([]float64, d.NDim())
	for i, r := range distances {
		d.Eval(r, row)
		copy(t.vals[i*d.NDim():], row)
	}
	return t
}

// Row returns the tabulated channel values for distance index i.
func (t *Table) Row(i int) []float64 {
	nd := t.desc.NDim()
	return t.vals[i*nd : (i+1)*nd]
}

// Desc returns the descriptor the table was built from.
func (t *Table) Desc() *Descriptor { return t.desc }

// MemoryBytes returns the table footprint.
func (t *Table) MemoryBytes() int { return 8 * len(t.vals) }

// ComputeSite computes the feature vector of region site i of a vacancy
// system into out (length Dim), given the shared tables and the system's
// VET. Vacancy neighbours contribute nothing; out is fully overwritten.
//
// Evaluation order (part of the determinism contract): neighbours are
// first tallied into per-(element, distance-shell) occupancy counts, then
// each occupied shell contributes count·TABLE[shell] to its element's
// channel block, shells ascending — the weighted-TABLE form of Eq. (6).
// The order is fixed, so every caller (NNP region energy, CPE feature
// operator) produces bit-identical rows for the same VET.
// Grouping by shell costs O(occupied shells) table passes per site
// instead of O(neighbours) — on the bcc lattice roughly a 5× reduction.
func ComputeSite(tb *encoding.Tables, tab *Table, vet encoding.VET, i int, out []float64) {
	d := tab.desc
	nd := d.NDim()
	if d.NEl <= maxSiteElems && tab.nDist <= maxSiteShells && len(out) <= len(computeSiteBuf{}) {
		var cnt [maxSiteElems * maxSiteShells]uint16
		nDist := tab.nDist
		for _, nb := range tb.Neighbors(i) {
			s := vet[nb.ID]
			if !s.IsAtom() {
				continue
			}
			cnt[int(s)*nDist+int(nb.DistIndex)]++
		}
		var buf computeSiteBuf
		b := buf[:len(out)]
		for s := 0; s < d.NEl; s++ {
			dst := b[s*nd : s*nd+nd]
			for dist := 0; dist < nDist; dist++ {
				c := cnt[s*nDist+dist]
				if c == 0 {
					continue
				}
				f := float64(c)
				row := tab.vals[dist*nd : (dist+1)*nd]
				x := dst[:len(row)]
				j := 0
				for ; j+4 <= len(row); j += 4 {
					x[j] += f * row[j]
					x[j+1] += f * row[j+1]
					x[j+2] += f * row[j+2]
					x[j+3] += f * row[j+3]
				}
				for ; j < len(row); j++ {
					x[j] += f * row[j]
				}
			}
		}
		copy(out, b)
		return
	}
	// General fallback (oversize descriptors): same shell-grouped order,
	// heap-allocated tallies.
	cnt := make([]uint16, d.NEl*tab.nDist)
	for _, nb := range tb.Neighbors(i) {
		s := vet[nb.ID]
		if !s.IsAtom() {
			continue
		}
		cnt[int(s)*tab.nDist+int(nb.DistIndex)]++
	}
	for k := range out {
		out[k] = 0
	}
	for s := 0; s < d.NEl; s++ {
		dst := out[s*nd : s*nd+nd]
		for dist := 0; dist < tab.nDist; dist++ {
			c := cnt[s*tab.nDist+dist]
			if c == 0 {
				continue
			}
			f := float64(c)
			row := tab.Row(dist)
			for j, v := range row {
				dst[j] += f * v
			}
		}
	}
}

// computeSiteBuf is the on-stack accumulator of ComputeSite's fast path;
// it covers the production descriptor (64 channels) with headroom.
type computeSiteBuf [128]float64

// Fast-path tally bounds: the production encoding has 2 elements and a
// few tens of distance shells.
const (
	maxSiteElems  = 4
	maxSiteShells = 64
)

// ComputeRegion evaluates features for every region site of a vacancy
// system. out must have length NRegion × Dim; it is fully overwritten.
// This is the workload the paper's fast feature operator distributes
// over CPEs (Sec. 3.4).
func ComputeRegion(tb *encoding.Tables, tab *Table, vet encoding.VET, out []float64) {
	dim := tab.desc.Dim()
	if len(out) != tb.NRegion*dim {
		panic(fmt.Sprintf("feature: region buffer length %d, want %d", len(out), tb.NRegion*dim))
	}
	for i := 0; i < tb.NRegion; i++ {
		ComputeSite(tb, tab, vet, i, out[i*dim:(i+1)*dim])
	}
}

// ComputeSiteDirect is the untabulated reference path: it recomputes
// exp(−(r/p)^q) for every neighbour instead of reading TABLE. It exists
// as the baseline of the feature-table ablation and as a test oracle.
func ComputeSiteDirect(tb *encoding.Tables, desc *Descriptor, vet encoding.VET, i int, out []float64) {
	nd := desc.NDim()
	for k := range out {
		out[k] = 0
	}
	row := make([]float64, nd)
	for _, nb := range tb.Neighbors(i) {
		s := vet[nb.ID]
		if !s.IsAtom() {
			continue
		}
		desc.Eval(tb.Distances[nb.DistIndex], row)
		base := int(s) * nd
		for c, v := range row {
			out[base+c] += v
		}
	}
}
