package main

import (
	"math"
	"sort"
)

// metric is one named, unitised number the benchmark prints.
type metric struct {
	name string
	unit string
}

// endToEnd are the user-visible metrics of an untraced run
// (--trace 0). fail_frac is carried by the result line's attempted and
// failed counts instead: it is 0 on a healthy workload, so it cannot
// carry a relative bound.
var endToEnd = []metric{
	{"hops_per_s", "hops/s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's numbers (--trace 1), printed for every
// workload. A layer the workload bypasses reports 0.
var perLayer = []metric{
	{"kmc.step_us_p50", "us"},
	{"kmc.step_us_p99", "us"},
	{"kmc.self_us_per_hop", "us"},
	{"kmc.evals_per_hop", "count"},
	{"kmc.refills_per_hop", "count"},
	{"kmc.patches_per_hop", "count"},
	{"encoding.fillvet_us", "us"},
	{"nnp.hop_us_p50", "us"},
	{"nnp.hop_us_p99", "us"},
	{"nnp.busy_frac", "1"},
	{"feature.us_per_state", "us"},
	{"nnp.forward_us_per_state", "us"},
	{"nnp.mflop_per_hop", "MFLOP"},
	{"nnp.forward_gflops", "GFLOP/s"},
	{"eam.hop_us_p50", "us"},
	{"eam.busy_frac", "1"},
	{"sublattice.segment_ms_p50", "ms"},
	{"sublattice.rank_eval_frac", "1"},
	{"sublattice.hop_imbalance", "1"},
	{"sublattice.changes_per_hop", "count"},
	{"sublattice.discards_per_hop", "count"},
	{"sublattice.scaling_eff", "1"},
	{"core.checkpoint_ms_p50", "ms"},
	{"core.checkpoint_kb", "KB"},
	{"ledger.unattributed_frac", "1"},
	{"ledger.trace_overhead_frac", "1"},
}

// cachedLayer are the evaluation-service numbers only nnp-cached
// exercises. They are printed after perLayer for that workload alone,
// and join BENCHMARK.json together with it.
var cachedLayer = []metric{
	{"evalserve.hit_rate", "1"},
	{"evalserve.hit_us_p50", "us"},
	{"evalserve.miss_us_p50", "us"},
	{"evalserve.miss_us_p99", "us"},
	{"evalserve.queue_us_per_miss", "us"},
	{"fusion.batch_us_p50", "us"},
	{"fusion.systems_per_batch", "count"},
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
