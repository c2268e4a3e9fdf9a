package nnp

import (
	"fmt"
	"math"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
)

// Potential is the trained neural network potential: one energy head per
// chemical element (TensorAlloy-style), a shared feature descriptor, and
// the normalisation/reference constants fixed at training time.
//
// The per-atom energy of an atom of element e with raw feature vector x is
//
//	E_atom = Net_e((x − FeatMean)/FeatStd) + ERef_e
//
// and a configuration's energy is the sum over its atoms. Vacancies carry
// no energy.
type Potential struct {
	Desc *feature.Descriptor
	Nets [lattice.NumElements]*Network
	// ERef is the per-element reference (cohesive-scale) energy added
	// back to the network output; it centres the regression targets.
	ERef [lattice.NumElements]float64
	// FeatMean/FeatStd normalise raw features channel-wise. Nil means
	// identity (used by freshly initialised potentials and tests).
	FeatMean []float64
	FeatStd  []float64
}

// NewPotential builds an untrained potential with independently
// initialised per-element networks of the given layer sizes. sizes[0]
// must equal the descriptor dimension.
func NewPotential(desc *feature.Descriptor, sizes []int, r *rng.Stream) *Potential {
	if sizes[0] != desc.Dim() {
		panic(fmt.Sprintf("nnp: network input %d != descriptor dim %d", sizes[0], desc.Dim()))
	}
	if sizes[len(sizes)-1] != 1 {
		panic("nnp: energy head must have one output")
	}
	p := &Potential{Desc: desc}
	for e := range p.Nets {
		p.Nets[e] = NewNetwork(sizes, r.Split(uint64(e)))
	}
	return p
}

// NormalizeInto writes the normalised feature vector into dst — the
// exact channel-wise transform the evaluator applies before the network,
// exported so code outside the package reproduces it bit-identically.
func (p *Potential) NormalizeInto(dst, raw []float64) { p.normalizeInto(dst, raw) }

// normalizeInto writes the normalised feature vector into dst.
func (p *Potential) normalizeInto(dst, raw []float64) {
	if p.FeatMean == nil {
		copy(dst, raw)
		return
	}
	for c, v := range raw {
		dst[c] = (v - p.FeatMean[c]) / p.FeatStd[c]
	}
}

// AtomEnergy evaluates one atom's energy from its raw feature vector.
func (p *Potential) AtomEnergy(s lattice.Species, raw []float64) float64 {
	if !s.IsAtom() {
		return 0
	}
	x := NewMatrix(1, p.Desc.Dim())
	p.normalizeInto(x.Data, raw)
	out := p.Nets[s].Forward(x)
	return out.Data[0] + p.ERef[s]
}

// tileRows is the row-tile height of the inference kernel: the sites
// that need a fresh network output stream through it 32 rows at a time
// (the paper's m_block), so a Scratch stays a few tens of KiB whatever
// the region size.
const tileRows = 32

// Scratch holds the reusable state of one goroutine's region and hop
// energy evaluations, so the KMC hot loop does not allocate: the kernel
// tile, the per-site outputs of the state being evaluated and of the
// initial state, and the memo of per-site outputs by environment. One
// Scratch per goroutine.
//
// The memo belongs to the potential, tables and feature table of the
// last call and to the scratch's precision; a call with any other
// binding empties it first. The potential's weights must not change
// while a Scratch that has evaluated it is reused.
type Scratch struct {
	feats []float64 // site feature vector (Dim)
	x     Matrix    // one tile of normalised feature rows (tileRows × Dim)
	out   Matrix    // the tile's network outputs (tileRows × 1)
	blk   BlockScratch
	f32   *tile32 // non-nil: run tiles through the float32 kernel

	// Binding of the per-site state below; see bind.
	pot *Potential
	tb  *encoding.Tables
	tab *feature.Table

	all       []int16         // region sites 0 … NRegion−1
	init, cur []float64       // per-region-site outputs: initial state, current state
	cnt       []uint16        // one site's tally (feature.Table.TallyLen)
	pend      [tileRows]int16 // region site of each tile row
	memo      siteMemo

	// Per-call row counts, flushed to Rows at the end of each call.
	forward, hits int64
	// Rows, if non-nil, accumulates the row counts of every call.
	Rows *RowStats
}

// tile32 is the float32 side of a Scratch built by NewScratch32.
type tile32 struct {
	q   *Potential32
	x   Matrix32
	out Matrix32
	blk BlockScratch32
}

// NewScratch sizes a scratch for the given tables/potential pair. The
// per-site buffers and the memo (about 30 KiB at 6.5 Å) are sized on the
// first evaluation.
func (p *Potential) NewScratch(tb *encoding.Tables) *Scratch {
	dim := p.Desc.Dim()
	return &Scratch{
		feats: make([]float64, dim),
		x:     NewMatrix(tileRows, dim),
		out:   NewMatrix(tileRows, 1),
		memo:  siteMemo{bits: memoBits},
	}
}

// NewScratch32 sizes a scratch whose tiles run through q, the quantised
// form of p, in the float32 kernel. Features and their normalisation stay
// float64 and each tile is rounded to float32 on its way into the
// kernel; the outputs are summed in float64 exactly as with NewScratch.
// The energies are deterministic but NOT bit-identical to the float64
// path.
func (p *Potential) NewScratch32(tb *encoding.Tables, q *Potential32) *Scratch {
	s := p.NewScratch(tb)
	dim := p.Desc.Dim()
	s.f32 = &tile32{q: q, x: NewMatrix32(tileRows, dim), out: NewMatrix32(tileRows, 1)}
	return s
}

// bind points the scratch's per-site state at (p, tb, tab), resizing it
// and emptying the memo when the binding changes.
func (s *Scratch) bind(p *Potential, tb *encoding.Tables, tab *feature.Table) {
	if s.pot == p && s.tb == tb && s.tab == tab {
		return
	}
	s.pot, s.tb, s.tab = p, tb, tab
	if len(s.all) != tb.NRegion {
		s.all = make([]int16, tb.NRegion)
		for i := range s.all {
			s.all[i] = int16(i)
		}
		s.init = make([]float64, tb.NRegion)
		s.cur = make([]float64, tb.NRegion)
	}
	if n := tab.TallyLen(); len(s.cnt) != n {
		s.cnt = make([]uint16, n)
	}
	s.memo.reset(tb, len(s.cnt))
}

// RegionEnergy returns the total energy of the jumping region of a
// vacancy system in state vet: the sum of per-atom energies over region
// sites. Outer (N_out) sites only shape the features of region sites;
// their own energies are invariant under any hop and therefore excluded
// (Sec. 3.1). The per-atom outputs are summed element by element in site
// order, then the element's reference energy is added once per atom.
func (p *Potential) RegionEnergy(tb *encoding.Tables, tab *feature.Table, vet encoding.VET, s *Scratch) float64 {
	if s == nil {
		s = p.NewScratch(tb)
	}
	s.bind(p, tb, tab)
	s.evalSites(p, tb, tab, vet, nil, s.all, s.cur)
	total, rows := p.sumRegion(tb, vet, s.cur)
	s.flushRows(rows)
	return total
}

// HopEnergies computes the initial-state region energy and the energy of
// each of the 8 candidate final states, the 1+N_f evaluation of Sec. 3.4.
// Final states whose target site is not an atom (another vacancy) are
// reported as NaN-free: valid[k] is false and final[k] is 0.
//
// Only what a hop changes is recomputed. The initial state's per-site
// outputs are kept; final state k re-evaluates the origin, the hop target
// and the sites of tb.HopAffected[k], and reuses every other site's
// initial output. Every site that needs an output looks its environment
// up in the scratch's memo before it runs the kernel. The energies are
// bit-identical to evaluating all 1+8 regions in full: a site's output
// is a pure function of its element and tally, the kernel is
// row-independent, and the sum keeps the element-then-site order.
//
// A non-finite region energy can only come from a corrupted network (a
// bit-flipped weight) or scrambled features; it is trapped here with a
// typed *fault.CorruptionError panic so the supervisor sees a
// non-retryable failure instead of a silently poisoned trajectory. The
// cost is one comparison per evaluated state, dwarfed by the MLP
// forward pass that produced the value.
func (p *Potential) HopEnergies(tb *encoding.Tables, tab *feature.Table, vet encoding.VET, s *Scratch) (initial float64, final [8]float64, valid [8]bool) {
	if s == nil {
		s = p.NewScratch(tb)
	}
	s.bind(p, tb, tab)
	s.evalSites(p, tb, tab, vet, nil, s.all, s.init)
	initial, rows := p.sumRegion(tb, vet, s.init)
	checkFiniteEnergy("initial", initial)
	for k, nn := range tb.NN1Index {
		if !vet[nn].IsAtom() {
			continue
		}
		tb.ApplyHop(vet, k)
		copy(s.cur, s.init)
		s.evalSites(p, tb, tab, vet, []int16{0, int16(nn)}, tb.HopAffected[k], s.cur)
		var n int
		final[k], n = p.sumRegion(tb, vet, s.cur)
		rows += n
		checkFiniteEnergy("final", final[k])
		valid[k] = true
		tb.ApplyHop(vet, k)
	}
	s.flushRows(rows)
	return initial, final, valid
}

// sumRegion sums the per-site outputs of the atoms of region state vet,
// element by element in site order, adding each element's reference
// energy once per atom; it also returns the atom count.
func (p *Potential) sumRegion(tb *encoding.Tables, vet encoding.VET, outs []float64) (total float64, atoms int) {
	for e := 0; e < lattice.NumElements; e++ {
		rows := 0
		for i, v := range outs[:tb.NRegion] {
			if vet[i] == lattice.Species(e) {
				total += v
				rows++
			}
		}
		if rows > 0 {
			total += float64(rows) * p.ERef[e]
		}
		atoms += rows
	}
	return total, atoms
}

// evalSites writes into outs[i] the network output of every atom site i
// of head and list in state vet. Each site's tally is looked up in the
// memo; the misses run through the kernel, element by element, in row
// tiles, and their outputs enter the memo.
func (s *Scratch) evalSites(p *Potential, tb *encoding.Tables, tab *feature.Table, vet encoding.VET, head, list []int16, outs []float64) {
	dim := p.Desc.Dim()
	for e := 0; e < lattice.NumElements; e++ {
		sp := lattice.Species(e)
		n := 0
		for _, sites := range [2][]int16{head, list} {
			for _, i := range sites {
				if vet[i] != sp {
					continue
				}
				tab.Tally(tb, vet, int(i), s.cnt)
				if v, ok := s.memo.lookup(e, s.cnt, n); ok {
					outs[i] = v
					s.hits++
					continue
				}
				tab.FromTally(s.cnt, s.feats)
				p.normalizeInto(s.x.Data[n*dim:(n+1)*dim], s.feats)
				s.pend[n] = i
				n++
				if n == tileRows {
					s.runTile(p, e, n, outs)
					n = 0
				}
			}
		}
		if n > 0 {
			s.runTile(p, e, n, outs)
		}
	}
}

// runTile runs the first n rows of the tile through element e's head,
// writes each row's output to its site and stores it in the memo.
func (s *Scratch) runTile(p *Potential, e, n int, outs []float64) {
	if t := s.f32; t != nil {
		for i, v := range s.x.Data[:n*s.x.Cols] {
			t.x.Data[i] = float32(v)
		}
		t.q.Nets[e].ForwardBlockInto(t.x, t.out, 0, n, &t.blk)
		for r, v := range t.out.Data[:n] {
			outs[s.pend[r]] = float64(v)
		}
	} else {
		p.Nets[e].ForwardBlockInto(s.x, s.out, 0, n, &s.blk)
		for r, v := range s.out.Data[:n] {
			outs[s.pend[r]] = v
		}
	}
	for r := 0; r < n; r++ {
		s.memo.store(r, outs[s.pend[r]])
	}
	s.forward += int64(n)
}

// flushRows reports one call's row counts to Rows and resets them; rows
// is the call's atom count over all its states, and every row neither
// run nor read from the memo was reused.
func (s *Scratch) flushRows(rows int) {
	s.Rows.add(s.forward, int64(rows)-s.forward-s.hits, s.hits)
	s.forward, s.hits = 0, 0
}

// checkFiniteEnergy is the NNP hot-path tripwire.
func checkFiniteEnergy(state string, e float64) {
	if math.IsNaN(e) || math.IsInf(e, 0) {
		panic(&fault.CorruptionError{
			Subsystem: "nnp",
			Detail:    fmt.Sprintf("%s-state region energy is %v", state, e),
		})
	}
}

// StructureEnergy evaluates the total energy of a continuous periodic
// structure (the training-time path).
func (p *Potential) StructureEnergy(pos [][3]float64, spec []lattice.Species, cell [3]float64) float64 {
	feats := p.Desc.ComputeStructure(pos, spec, cell)
	total := 0.0
	for i, s := range spec {
		if s.IsAtom() {
			total += p.AtomEnergy(s, feats[i])
		}
	}
	return total
}

// StructureForces returns the analytic forces −∂E/∂x on every atom of a
// continuous structure, chaining the network input gradients through the
// descriptor derivative.
func (p *Potential) StructureForces(pos [][3]float64, spec []lattice.Species, cell [3]float64) [][3]float64 {
	feats := p.Desc.ComputeStructure(pos, spec, cell)
	dim := p.Desc.Dim()
	featGrad := make([][]float64, len(pos))
	for i := range featGrad {
		featGrad[i] = make([]float64, dim)
	}
	for e := 0; e < lattice.NumElements; e++ {
		var idx []int
		for i, s := range spec {
			if s == lattice.Species(e) {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		x := NewMatrix(len(idx), dim)
		for r, i := range idx {
			p.normalizeInto(x.Row(r), feats[i])
		}
		out, tape := p.Nets[e].ForwardTape(x)
		ones := NewMatrix(out.Rows, 1)
		for i := range ones.Data {
			ones.Data[i] = 1
		}
		inGrad, _ := p.Nets[e].Backward(tape, ones)
		for r, i := range idx {
			g := inGrad.Row(r)
			for c := 0; c < dim; c++ {
				// Chain through the normalisation: ∂x̂/∂x = 1/std.
				if p.FeatStd != nil {
					featGrad[i][c] = g[c] / p.FeatStd[c]
				} else {
					featGrad[i][c] = g[c]
				}
			}
		}
	}
	return p.Desc.ComputeForces(pos, spec, cell, featGrad)
}
