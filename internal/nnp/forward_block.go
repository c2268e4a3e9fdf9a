package nnp

import "fmt"

// The inference kernels: one float64 row kernel (gemmBlock) and one
// float32 row kernel (forwardRow32). Every inference path runs them —
// Network.Forward and Network32.Forward, the row tiles of
// Potential.RegionEnergy (and so the serial engine, the parallel ranks
// and the evaluation service), and the fusion ladder of Fig. 10.
// Training (ForwardTape, Backward, DoubleBackward) keeps MatMul.
//
// Determinism contract: for every row, the accumulation over the input
// dimension runs in ascending k order with the same zero-skip MatMul
// uses, followed by bias, then the activation — so each output row is
// bit-identical to MatMul + AddBias(Relu) of the same row, regardless of
// how many rows a call carries or which goroutine runs it.

// BlockScratch holds the reusable float64 activation buffers of one
// block-forward caller. It is NOT safe for concurrent use: give each
// goroutine its own scratch. The buffers grow to the largest block seen,
// so callers that reuse a scratch bound its size by bounding their
// blocks (RegionEnergy's tiles).
type BlockScratch struct {
	a, b []float64
}

// ensure grows both buffers to at least n elements.
func (s *BlockScratch) ensure(n int) {
	if cap(s.a) < n {
		s.a = make([]float64, n)
	}
	if cap(s.b) < n {
		s.b = make([]float64, n)
	}
	s.a = s.a[:n]
	s.b = s.b[:n]
}

// maxLayerWidth returns the widest activation the network produces.
func (n *Network) maxLayerWidth() int {
	w := n.InputDim()
	for _, l := range n.Layers {
		if l.W.Cols > w {
			w = l.W.Cols
		}
	}
	return w
}

// ForwardBlockInto evaluates rows [lo, hi) of x through the network and
// writes the final activations into the same rows of out. out must be
// (x.Rows × OutputDim). The call touches only rows [lo, hi) of out, so
// concurrent calls on disjoint row ranges (sharing x and out, each with
// a private scratch) are race-free and produce output bit-identical to a
// single serial Forward over all of x.
func (n *Network) ForwardBlockInto(x, out Matrix, lo, hi int, s *BlockScratch) {
	if x.Cols != n.InputDim() {
		panic(fmt.Sprintf("nnp: forward input width %d, want %d", x.Cols, n.InputDim()))
	}
	if out.Cols != n.OutputDim() {
		panic("nnp: block forward output width mismatch")
	}
	rows := hi - lo
	if rows <= 0 {
		return
	}
	s.ensure(rows * n.maxLayerWidth())
	cur := x.Data[lo*x.Cols : hi*x.Cols]
	curCols := x.Cols
	buf, next := s.a, s.b
	for li, l := range n.Layers {
		outW := l.W.Cols
		last := li == len(n.Layers)-1
		dst := buf[:rows*outW]
		if last {
			dst = out.Data[lo*outW : hi*outW]
		}
		gemmBlock(dst, cur, rows, curCols, outW, l.W.Data, l.B, l.Relu)
		if !last {
			cur, curCols = dst, outW
			buf, next = next, buf
		}
	}
	_ = next
}

// gemmBlock computes dst = act(src·W + b) for a contiguous row block,
// four rows at a time so each weight row is loaded once per quad. The
// per-row float-operation sequence is exactly MatMulInto + AddBias(Relu):
// zero-initialised accumulators, ascending-k accumulation with the
// zero-skip, then bias, then the activation — rows never mix, so the
// unrolling cannot perturb any output bit.
func gemmBlock(dst, src []float64, rows, inW, outW int, w, b []float64, relu bool) {
	for i := range dst {
		dst[i] = 0
	}
	i := 0
	for ; i+4 <= rows; i += 4 {
		a0 := src[(i+0)*inW : (i+1)*inW]
		a1 := src[(i+1)*inW : (i+2)*inW]
		a2 := src[(i+2)*inW : (i+3)*inW]
		a3 := src[(i+3)*inW : (i+4)*inW]
		c0 := dst[(i+0)*outW : (i+1)*outW]
		c1 := dst[(i+1)*outW : (i+2)*outW]
		c2 := dst[(i+2)*outW : (i+3)*outW]
		c3 := dst[(i+3)*outW : (i+4)*outW]
		for k := 0; k < inW; k++ {
			v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			br := w[k*outW : (k+1)*outW]
			// Reslicing the accumulators to len(br) lets the compiler
			// drop the bounds checks in the fused loop.
			if v0 != 0 && v1 != 0 && v2 != 0 && v3 != 0 {
				x0, x1, x2, x3 := c0[:len(br)], c1[:len(br)], c2[:len(br)], c3[:len(br)]
				for j, bv := range br {
					x0[j] += v0 * bv
					x1[j] += v1 * bv
					x2[j] += v2 * bv
					x3[j] += v3 * bv
				}
				continue
			}
			if v0 != 0 {
				x := c0[:len(br)]
				for j, bv := range br {
					x[j] += v0 * bv
				}
			}
			if v1 != 0 {
				x := c1[:len(br)]
				for j, bv := range br {
					x[j] += v1 * bv
				}
			}
			if v2 != 0 {
				x := c2[:len(br)]
				for j, bv := range br {
					x[j] += v2 * bv
				}
			}
			if v3 != 0 {
				x := c3[:len(br)]
				for j, bv := range br {
					x[j] += v3 * bv
				}
			}
		}
	}
	for ; i < rows; i++ {
		ar := src[i*inW : (i+1)*inW]
		cr := dst[i*outW : (i+1)*outW]
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := w[k*outW : (k+1)*outW]
			for j, bv := range br {
				cr[j] += av * bv
			}
		}
	}
	if relu {
		for r := 0; r < rows; r++ {
			cr := dst[r*outW : (r+1)*outW]
			for j, bv := range b {
				v := cr[j] + bv
				if v < 0 {
					v = 0
				}
				cr[j] = v
			}
		}
	} else {
		for r := 0; r < rows; r++ {
			cr := dst[r*outW : (r+1)*outW]
			for j, bv := range b {
				cr[j] += bv
			}
		}
	}
}

// BlockScratch32 is the float32 counterpart of BlockScratch; same
// single-goroutine ownership rule.
type BlockScratch32 struct {
	a, b []float32
}

func (s *BlockScratch32) ensure(n int) {
	if cap(s.a) < n {
		s.a = make([]float32, n)
	}
	if cap(s.b) < n {
		s.b = make([]float32, n)
	}
	s.a = s.a[:n]
	s.b = s.b[:n]
}

// maxLayerWidth returns the widest activation the quantised network
// produces.
func (q *Network32) maxLayerWidth() int {
	w := q.Sizes[0]
	for _, l := range q.layers {
		if l.w.Cols > w {
			w = l.w.Cols
		}
	}
	return w
}

// ForwardBlockInto evaluates rows [lo, hi) of x through the quantised
// network into the same rows of out, row by row through forwardRow32.
// Concurrent calls on disjoint row ranges with private scratches are
// race-free and schedule-independent.
func (q *Network32) ForwardBlockInto(x, out Matrix32, lo, hi int, s *BlockScratch32) {
	if x.Cols != q.Sizes[0] {
		panic("nnp: f32 block forward input width mismatch")
	}
	if out.Cols != q.Sizes[len(q.Sizes)-1] {
		panic("nnp: f32 block forward output width mismatch")
	}
	rows := hi - lo
	if rows <= 0 {
		return
	}
	s.ensure(rows * q.maxLayerWidth())
	cur := x.Data[lo*x.Cols : hi*x.Cols]
	curCols := x.Cols
	buf, next := s.a, s.b
	for li, l := range q.layers {
		outW := l.w.Cols
		last := li == len(q.layers)-1
		for i := 0; i < rows; i++ {
			ar := cur[i*curCols : (i+1)*curCols]
			var cr []float32
			if last {
				cr = out.Row(lo + i)
			} else {
				cr = buf[i*outW : (i+1)*outW]
			}
			forwardRow32(cr, ar, l.w, l.b, l.relu)
		}
		if !last {
			cur, curCols = buf[:rows*outW], outW
			buf, next = next, buf
		}
	}
	_ = next
}

// forwardRow32 is the float32 row kernel: cr = act(ar·W + b) with
// zero-initialised float32 accumulation in ascending k order, the
// zero-skip, then bias, then ReLU.
func forwardRow32(cr, ar []float32, w Matrix32, b []float32, relu bool) {
	for j := range cr {
		cr[j] = 0
	}
	for k, av := range ar {
		if av == 0 {
			continue
		}
		br := w.Row(k)
		for j, bv := range br {
			cr[j] += av * bv
		}
	}
	for j := range cr {
		v := cr[j] + b[j]
		if relu && v < 0 {
			v = 0
		}
		cr[j] = v
	}
}
