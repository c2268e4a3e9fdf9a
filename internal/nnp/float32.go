package nnp

// Single-precision inference. The Sunway big-fusion operator runs in
// float32 (the paper quotes 76.64% of *single-precision* peak, and the
// roofline counts 4-byte elements); training here stays in float64, and
// this file provides the quantised inference path plus the error bound
// the KMC rates can tolerate.

// Matrix32 is a dense row-major float32 matrix.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix32 allocates a zeroed matrix.
func NewMatrix32(rows, cols int) Matrix32 {
	return Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a view of row i.
func (m Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// ToF32 converts a float64 matrix.
func ToF32(m Matrix) Matrix32 {
	out := NewMatrix32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// ToF64 converts back to float64.
func (m Matrix32) ToF64() Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// Network32 is a float32 snapshot of a trained network, used for
// inference only.
type Network32 struct {
	Sizes  []int
	layers []layer32
}

type layer32 struct {
	w    Matrix32
	b    []float32
	relu bool
}

// Quantize converts a trained float64 network to float32 inference form.
func (n *Network) Quantize() *Network32 {
	q := &Network32{Sizes: append([]int(nil), n.Sizes...)}
	for _, l := range n.Layers {
		ql := layer32{w: ToF32(l.W), b: make([]float32, len(l.B)), relu: l.Relu}
		for i, v := range l.B {
			ql.b[i] = float32(v)
		}
		q.layers = append(q.layers, ql)
	}
	return q
}

// Forward evaluates the quantised network on a float32 batch through
// the float32 inference kernel. Accumulation is float32 throughout,
// matching SIMD hardware behaviour.
func (q *Network32) Forward(x Matrix32) Matrix32 {
	out := NewMatrix32(x.Rows, q.Sizes[len(q.Sizes)-1])
	q.ForwardBlockInto(x, out, 0, x.Rows, &BlockScratch32{})
	return out
}

// Potential32 is the single-precision inference form of a trained
// potential: quantised per-element heads plus float32 normalisation.
type Potential32 struct {
	Nets [2]*Network32
	mean []float32
	std  []float32
	eref [2]float32
	dim  int
}

// Quantize converts a trained potential for float32 inference.
func (p *Potential) Quantize() *Potential32 {
	q := &Potential32{dim: p.Desc.Dim()}
	for e := range p.Nets {
		q.Nets[e] = p.Nets[e].Quantize()
		q.eref[e] = float32(p.ERef[e])
	}
	if p.FeatMean != nil {
		q.mean = make([]float32, q.dim)
		q.std = make([]float32, q.dim)
		for i := range p.FeatMean {
			q.mean[i] = float32(p.FeatMean[i])
			q.std[i] = float32(p.FeatStd[i])
		}
	}
	return q
}

// AtomEnergies evaluates per-atom energies for a batch of raw float64
// feature rows of one element, in single precision, returning float64
// results for the rate code.
func (q *Potential32) AtomEnergies(element int, feats [][]float64) []float64 {
	x := NewMatrix32(len(feats), q.dim)
	for r, f := range feats {
		dst := x.Row(r)
		for c, v := range f {
			fv := float32(v)
			if q.mean != nil {
				fv = (fv - q.mean[c]) / q.std[c]
			}
			dst[c] = fv
		}
	}
	out := q.Nets[element].Forward(x)
	res := make([]float64, len(feats))
	for i := range res {
		res[i] = float64(out.Data[i] + q.eref[element])
	}
	return res
}
