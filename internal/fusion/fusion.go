// Package fusion implements the NNP inference operators of Secs. 3.4–3.5
// on the simulated Sunway core group: the optimisation ladder of Fig. 10,
// from the naive per-layer Conv2D to the big-fusion operator of
// Algorithm 1. All variants compute numerically identical results (a 1×1
// convolution over atoms is exactly a matrix multiplication); they differ
// in how much main-memory traffic, scalar work and DMA latency they
// incur, which the sw.CoreGroup counters capture and the roofline model
// converts to time.
package fusion

import (
	"fmt"

	"tensorkmc/internal/nnp"
	"tensorkmc/internal/sw"
)

// Variant labels one rung of the Fig. 10 optimisation ladder.
type Variant int

const (
	// Base is the original operator: naive Conv2D on CPEs, scalar code
	// with per-element index arithmetic, separate bias and ReLU passes.
	Base Variant = iota
	// Matmul converts the 1×1 convolution to a matrix multiplication
	// (Fig. 6a) — same traffic, less index overhead, still scalar.
	Matmul
	// SIMD vectorises the matrix multiplication.
	SIMD
	// Fused merges (MatMul, Bias, ReLU) into one kernel per layer
	// (Fig. 6b): bias and ReLU happen in registers, eliminating their
	// memory passes.
	Fused
	// BigFusion merges all layers into a single kernel (Fig. 6c–f,
	// Algorithm 1): only the first input and last output touch main
	// memory; weights are distributed over CPE columns and shared by
	// RMA row broadcast; DMA double-buffering overlaps memory with
	// compute.
	BigFusion
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Base:
		return "conv2d(base)"
	case Matmul:
		return "matmul"
	case SIMD:
		return "matmul+simd"
	case Fused:
		return "fused(conv,bias,relu)"
	case BigFusion:
		return "big-fusion"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists the ladder in order.
var Variants = []Variant{Base, Matmul, SIMD, Fused, BigFusion}

// convIndexOverhead is the extra scalar work of per-element convolution
// indexing relative to a plain matmul (the paper's conv→matmul rung
// yields 1.23×).
const convIndexOverhead = 1.23

// Result bundles a run's output and its modelled cost.
type Result struct {
	// Out is the m×1 network output, bit-identical across variants.
	Out nnp.Matrix
	// Ct are the modelled hardware counters of the run (flops, DMA
	// bytes, LDM traffic) and Seconds the roofline-modelled time they
	// imply on the target core group.
	Ct      sw.Counters
	Seconds float64
	// PeakLDM is the high-water scratchpad usage of the most loaded
	// CPE (big-fusion only).
	PeakLDM int
}

// Run executes the network on a batch of m samples with the given
// variant on a fresh simulated core group and returns the output plus
// modelled cost. The input x is (m × inputDim). Every variant computes
// the same numbers, so the output always comes from one Network.Forward
// (the inference kernel); the variants differ only in the counters they
// charge.
func Run(v Variant, net *nnp.Network, x nnp.Matrix, arch sw.Arch) Result {
	cg := sw.NewCoreGroup(arch)
	m := x.Rows
	switch v {
	case Base, Matmul, SIMD:
		accountLayered(v, net, m, cg)
	case Fused:
		accountFused(net, m, cg)
	case BigFusion:
		accountBigFusion(cg, net, m)
	default:
		panic("fusion: unknown variant")
	}
	return finishResult(cg, arch, net.Forward(x), v == BigFusion)
}

// dmaTransfer counts a bulk transfer staged through DMA blocks.
func dmaTransfer(cg *sw.CoreGroup, bytes int) {
	block := cg.Arch.DMABlock
	for bytes > 0 {
		n := bytes
		if n > block {
			n = block
		}
		cg.DMAGet(0, n)
		bytes -= n
	}
}

// accountLayered charges the three unfused rungs: per layer a matmul
// pass, a bias pass and a ReLU pass, each streaming through main memory.
func accountLayered(v Variant, net *nnp.Network, m int, cg *sw.CoreGroup) {
	for _, layer := range net.Layers {
		in, outW := layer.W.Rows, layer.W.Cols
		// Matmul pass: read input and weights, write output.
		dmaTransfer(cg, m*in*4)
		dmaTransfer(cg, (in*outW+outW)*4)
		dmaTransfer(cg, m*outW*4)
		flops := float64(2 * m * in * outW)
		switch v {
		case Base:
			cg.Ct.ScalarFlops += flops * convIndexOverhead
		case Matmul:
			cg.Ct.ScalarFlops += flops
		case SIMD:
			cg.Ct.VectorFlops += flops
		}
		// Bias pass: read + write the activation map.
		dmaTransfer(cg, 2*m*outW*4)
		// ReLU pass: read + write again.
		dmaTransfer(cg, 2*m*outW*4)
		passFlops := float64(2 * m * outW)
		if v == SIMD {
			cg.Ct.VectorFlops += passFlops
		} else {
			cg.Ct.ScalarFlops += passFlops
		}
	}
}

// accountFused charges the per-layer fused kernel: one read of the
// input, one write of the output, bias and ReLU in registers.
func accountFused(net *nnp.Network, m int, cg *sw.CoreGroup) {
	for _, layer := range net.Layers {
		in, outW := layer.W.Rows, layer.W.Cols
		dmaTransfer(cg, m*in*4)
		dmaTransfer(cg, (in*outW+outW)*4)
		dmaTransfer(cg, m*outW*4)
		cg.Ct.VectorFlops += float64(2*m*in*outW) + float64(2*m*outW)
	}
}

// accountBigFusion charges Algorithm 1 for an m-row batch: the batch is
// divided into row blocks assigned to CPEs round-robin; each CPE carries
// its block through all layers entirely in LDM. Each CPE column owns one
// layer's parameters and broadcasts them along its row on demand (RMA).
// Main memory is touched exactly twice per block: the first-layer input
// and the last-layer output.
func accountBigFusion(cg *sw.CoreGroup, net *nnp.Network, m int) {
	if len(net.Layers) > cg.Arch.CPECols {
		panic(fmt.Sprintf("fusion: %d layers exceed the %d CPE columns (paper supports up to eight)",
			len(net.Layers), cg.Arch.CPECols))
	}
	nCPE := cg.Arch.NumCPEs()
	const mBlock = 32 // rows per CPE per iteration (the paper's m_block)

	maxW := 0
	totalParamBytes := 0
	for _, l := range net.Layers {
		if l.W.Cols > maxW {
			maxW = l.W.Cols
		}
		if l.W.Rows > maxW {
			maxW = l.W.Rows
		}
		totalParamBytes += (len(l.W.Data) + len(l.B)) * 4
	}

	// Model distribution: each column's CPEs hold 1/CPERows of one
	// layer's parameters, loaded once by DMA.
	perCPEShare := (totalParamBytes/len(net.Layers) + cg.Arch.CPERows - 1) / cg.Arch.CPERows
	for c := 0; c < nCPE; c++ {
		cg.LDMs[c].Alloc(perCPEShare)
	}
	dmaTransfer(cg, totalParamBytes)

	// Working set per CPE: double-buffered state (Fig. 6e) plus one
	// staged full layer (gathered by RMA, Fig. 6f).
	stateBuf := 2 * mBlock * maxW * 4
	layerBuf := 0
	for _, l := range net.Layers {
		if b := (len(l.W.Data) + len(l.B)) * 4; b > layerBuf {
			layerBuf = b
		}
	}
	for c := 0; c < nCPE; c++ {
		cg.LDMs[c].Alloc(stateBuf + layerBuf)
	}

	inDim := net.InputDim()
	for start := 0; start < m; start += nCPE * mBlock {
		for cpe := 0; cpe < nCPE; cpe++ {
			lo := start + cpe*mBlock
			if lo >= m {
				break
			}
			rows := min(lo+mBlock, m) - lo
			// Fetch this block's input (the only input read), run it
			// through every layer, put back the final output (the only
			// output write).
			cg.DMAGet(cpe, rows*inDim*4)
			for _, layer := range net.Layers {
				cg.Ct.VectorFlops += float64(2*rows*layer.W.Rows*layer.W.Cols) + float64(2*rows*layer.W.Cols)
			}
			cg.DMAPut(cpe, rows*net.OutputDim()*4)
		}
		// Per iteration, each layer's owning column broadcasts its
		// parameters along the rows (Fig. 6f).
		for _, l := range net.Layers {
			cg.RMARowBroadcast((len(l.W.Data) + len(l.B)) * 4)
		}
	}
	// Release working buffers (parameters stay resident).
	for c := 0; c < nCPE; c++ {
		cg.LDMs[c].Free(stateBuf + layerBuf)
	}
}

// RunBigFusionF32 executes the big-fusion operator in single precision —
// the arithmetic the real SW26010-pro uses (the paper quotes 76.64% of
// *single-precision* peak and 4-byte elements throughout Fig. 9). The
// modelled cost is the float64 big-fusion run's; the output differs from
// it only by rounding, and the test bounds the deviation at the level the
// KMC rate code tolerates.
func RunBigFusionF32(net *nnp.Network, x nnp.Matrix, arch sw.Arch) Result {
	cg := sw.NewCoreGroup(arch)
	accountBigFusion(cg, net, x.Rows)
	return finishResult(cg, arch, net.Quantize().Forward(nnp.ToF32(x)).ToF64(), true)
}

// finishResult packages the output and the accumulated modelled cost
// (overlap selects big-fusion's DMA/compute overlap) into a Result.
func finishResult(cg *sw.CoreGroup, arch sw.Arch, out nnp.Matrix, overlap bool) Result {
	res := Result{Out: out, Ct: cg.Ct, Seconds: cg.Ct.Time(arch, overlap)}
	for _, l := range cg.LDMs {
		if l.Peak() > res.PeakLDM {
			res.PeakLDM = l.Peak()
		}
	}
	return res
}
