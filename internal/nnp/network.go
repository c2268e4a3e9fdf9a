package nnp

import (
	"fmt"
	"math"

	"tensorkmc/internal/rng"
)

// Layer is one fused (matmul, bias, activation) stage: y = act(x·W + b),
// with W of shape (in × out). The last layer of a network is linear.
type Layer struct {
	W    Matrix
	B    []float64
	Relu bool
}

// Network is the per-element energy head: a plain MLP mapping a feature
// vector to a scalar atomic energy. Sizes lists layer widths including
// input and output, e.g. the paper's (64, 128, 128, 128, 64, 1).
type Network struct {
	Sizes  []int
	Layers []Layer
}

// NewNetwork builds a He-initialised network with ReLU on all hidden
// layers and a linear output layer.
func NewNetwork(sizes []int, r *rng.Stream) *Network {
	if len(sizes) < 2 {
		panic("nnp: network needs at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			panic(fmt.Sprintf("nnp: invalid layer size %d", s))
		}
	}
	n := &Network{Sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		layer := Layer{
			W:    NewMatrix(in, out),
			B:    make([]float64, out),
			Relu: l+2 < len(sizes),
		}
		scale := math.Sqrt(2.0 / float64(in))
		for i := range layer.W.Data {
			layer.W.Data[i] = scale * r.NormFloat64()
		}
		n.Layers = append(n.Layers, layer)
	}
	return n
}

// StandardSizes is the paper's production architecture (Sec. 4.1.1).
var StandardSizes = []int{64, 128, 128, 128, 64, 1}

// InputDim returns the expected feature dimension.
func (n *Network) InputDim() int { return n.Sizes[0] }

// OutputDim returns the output width (1 for an energy head).
func (n *Network) OutputDim() int { return n.Sizes[len(n.Sizes)-1] }

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W.Data) + len(l.B)
	}
	return total
}

// FlopsPerSample returns the multiply-add count (×2) of one forward pass
// per input row, the quantity the roofline analysis of Fig. 9 counts.
func (n *Network) FlopsPerSample() int {
	f := 0
	for l := 0; l+1 < len(n.Sizes); l++ {
		f += 2 * n.Sizes[l] * n.Sizes[l+1]
	}
	return f
}

// Forward evaluates the network on a batch (rows = samples) through the
// inference kernel, into a freshly allocated output.
func (n *Network) Forward(x Matrix) Matrix {
	out := NewMatrix(x.Rows, n.OutputDim())
	n.ForwardBlockInto(x, out, 0, x.Rows, &BlockScratch{})
	return out
}

// Tape stores the intermediate activations of a forward pass needed by
// Backward: acts[0] is the input, acts[l+1] the output of layer l.
type Tape struct {
	acts []Matrix
}

// ForwardTape evaluates the network, recording activations.
func (n *Network) ForwardTape(x Matrix) (Matrix, *Tape) {
	if x.Cols != n.InputDim() {
		panic("nnp: forward input width mismatch")
	}
	tape := &Tape{acts: make([]Matrix, 0, len(n.Layers)+1)}
	tape.acts = append(tape.acts, x)
	cur := x
	for _, l := range n.Layers {
		cur = MatMul(cur, l.W)
		if l.Relu {
			AddBiasRelu(cur, l.B)
		} else {
			AddBias(cur, l.B)
		}
		tape.acts = append(tape.acts, cur)
	}
	return cur, tape
}

// LayerGrad holds the parameter gradients of one layer.
type LayerGrad struct {
	W Matrix
	B []float64
}

// Backward propagates outGrad (∂L/∂output, same shape as the forward
// output) through the taped pass, returning ∂L/∂input and per-layer
// parameter gradients.
func (n *Network) Backward(tape *Tape, outGrad Matrix) (Matrix, []LayerGrad) {
	grads := make([]LayerGrad, len(n.Layers))
	delta := outGrad
	for l := len(n.Layers) - 1; l >= 0; l-- {
		layer := n.Layers[l]
		out := tape.acts[l+1]
		in := tape.acts[l]
		if layer.Relu {
			// ReLU gate: zero the gradient wherever the activation
			// clipped. Mutating a clone keeps the caller's outGrad
			// intact.
			gated := delta.Clone()
			for i := range gated.Data {
				if out.Data[i] <= 0 {
					gated.Data[i] = 0
				}
			}
			delta = gated
		}
		g := LayerGrad{W: MatMulATB(in, delta), B: make([]float64, len(layer.B))}
		for i := 0; i < delta.Rows; i++ {
			r := delta.Row(i)
			for j, v := range r {
				g.B[j] += v
			}
		}
		grads[l] = g
		if l > 0 {
			delta = MatMulABT(delta, layer.W)
		} else {
			delta = MatMulABT(delta, layer.W) // input gradient
		}
	}
	return delta, grads
}

// EnergyGradients backpropagates a unit output gradient (∂Σout/∂·) through
// a taped forward pass, returning the per-sample input gradient and the
// per-layer pre-activation gradients s⁽ˡ⁾ = ∂Σout/∂z_l. These are the
// ingredients of force evaluation and of force-loss double backprop.
func (n *Network) EnergyGradients(tape *Tape) (inGrad Matrix, preacts []Matrix) {
	if n.OutputDim() != 1 {
		panic("nnp: EnergyGradients requires a scalar output head")
	}
	preacts = make([]Matrix, len(n.Layers))
	rows := tape.acts[0].Rows
	delta := NewMatrix(rows, 1)
	for i := range delta.Data {
		delta.Data[i] = 1
	}
	for l := len(n.Layers) - 1; l >= 0; l-- {
		layer := n.Layers[l]
		if layer.Relu {
			out := tape.acts[l+1]
			gated := delta.Clone()
			for i := range gated.Data {
				if out.Data[i] <= 0 {
					gated.Data[i] = 0
				}
			}
			delta = gated
		}
		preacts[l] = delta
		delta = MatMulABT(delta, layer.W)
	}
	return delta, preacts
}

// DoubleBackward returns the parameter gradients of the scalar
// S = Σ_samples u·g, where g is the input gradient computed by
// EnergyGradients and u a per-sample co-gradient (∂Loss/∂g). This is the
// force-training step: the force loss depends on the weights only through
// g, and ∂S/∂W_l = v_{l−1}ᵀ·s⁽ˡ⁾ with v the forward propagation of u
// through the ReLU-linearised network. Biases do not influence g (ReLU
// masks are treated as constant almost everywhere), so their gradients
// are zero.
func (n *Network) DoubleBackward(tape *Tape, preacts []Matrix, u Matrix) []LayerGrad {
	if u.Rows != tape.acts[0].Rows || u.Cols != n.InputDim() {
		panic("nnp: DoubleBackward co-gradient shape mismatch")
	}
	grads := make([]LayerGrad, len(n.Layers))
	v := u
	for l, layer := range n.Layers {
		grads[l] = LayerGrad{W: MatMulATB(v, preacts[l]), B: make([]float64, len(layer.B))}
		if l == len(n.Layers)-1 {
			break
		}
		next := MatMul(v, layer.W)
		if layer.Relu {
			out := tape.acts[l+1]
			for i := range next.Data {
				if out.Data[i] <= 0 {
					next.Data[i] = 0
				}
			}
		}
		v = next
	}
	return grads
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := &Network{Sizes: append([]int(nil), n.Sizes...)}
	for _, l := range n.Layers {
		c.Layers = append(c.Layers, Layer{W: l.W.Clone(), B: append([]float64(nil), l.B...), Relu: l.Relu})
	}
	return c
}
