// Benchmarks mapping to the paper's evaluation section, one per table and
// figure (see DESIGN.md's per-experiment index), plus ablation benches
// for the design choices. `go test -bench=. -benchmem` runs them all;
// cmd/tkmc-bench regenerates the full tables/curves these benches time.
package tensorkmc_test

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"tensorkmc/internal/bondcount"
	"tensorkmc/internal/cluster"
	"tensorkmc/internal/core"
	"tensorkmc/internal/dataset"
	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/evalserve"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/fusion"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/memmodel"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/openkmc"
	"tensorkmc/internal/perfmodel"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/roofline"
	"tensorkmc/internal/sublattice"
	"tensorkmc/internal/sw"
	"tensorkmc/internal/train"
	"tensorkmc/internal/units"
)

// --- Fig. 7: NNP training ----------------------------------------------

// BenchmarkFig07TrainNNP times one full (small) training run of the
// Fig. 7 pipeline: feature precomputation, energy+force epochs, Adam.
func BenchmarkFig07TrainNNP(b *testing.B) {
	oracle := eam.New(eam.Default())
	structs := dataset.Generate(24, oracle, dataset.DefaultConfig(), rng.New(1))
	desc := feature.Standard(units.CutoffStandard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := train.Fit(structs, desc, train.Options{
			Sizes: []int{64, 16, 1}, Epochs: 10, BatchStructures: 8,
			LR: 1e-3, ForceWeight: 0.3, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 8: engine equivalence -------------------------------------------

// BenchmarkFig08Validation times paired steps of the two engines whose
// trajectory equality is the Fig. 8 validation (also a tkmc-bench
// experiment and the openkmc test suite's equivalence test).
func BenchmarkFig08Validation(b *testing.B) {
	pot := eam.New(eam.Default())
	boxA := lattice.NewBox(12, 12, 12, units.LatticeConstantFe)
	lattice.FillRandomAlloy(boxA, 0.04, 0.001, rng.New(3))
	boxB := boxA.Clone()
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	tkmc := kmc.NewEngine(boxA, eam.NewRegionEvaluator(pot, tb), units.ReactorTemperature, rng.New(4), kmc.Options{})
	base := openkmc.NewEngine(boxB, pot, units.CutoffStandard, units.ReactorTemperature, rng.New(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evA, okA := tkmc.Step(1e300)
		evB, okB := base.Step(1e300)
		if okA != okB || evA.To != evB.To {
			b.Fatal("engines diverged")
		}
	}
}

// --- Fig. 9: roofline ----------------------------------------------------

// BenchmarkFig09Roofline times the roofline analysis plus one real
// big-fusion execution and reports the headline intensities.
func BenchmarkFig09Roofline(b *testing.B) {
	arch := sw.SW26010Pro()
	net := nnp.NewNetwork(nnp.StandardSizes, rng.New(1))
	const m = 32 * 16 * 16
	x := nnp.NewMatrix(m, 64)
	var intensity float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = roofline.LayerPoints(arch, net, m)
		p := roofline.BigFusionPoint(arch, net, m)
		res := fusion.Run(fusion.BigFusion, net, x, arch)
		intensity = res.Ct.Intensity()
		_ = p
	}
	b.ReportMetric(intensity, "flop/B")
	b.ReportMetric(arch.MachineBalance(), "balance")
}

// --- Fig. 10: operator ladder ------------------------------------------------

// BenchmarkFig10OperatorLadder runs each rung of the optimisation ladder
// (real numerics on the simulated CG) and reports the modelled Sunway
// time as a custom metric.
func BenchmarkFig10OperatorLadder(b *testing.B) {
	arch := sw.SW26010Pro()
	net := nnp.NewNetwork(nnp.StandardSizes, rng.New(1))
	const m = 2048
	x := nnp.NewMatrix(m, 64)
	r := rng.New(2)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	for _, v := range fusion.Variants {
		b.Run(v.String(), func(b *testing.B) {
			var modelled float64
			for i := 0; i < b.N; i++ {
				res := fusion.Run(v, net, x, arch)
				modelled = res.Seconds
			}
			b.ReportMetric(modelled*1e6, "model-µs")
		})
	}
}

// --- Fig. 11: serial comparison -------------------------------------------

// BenchmarkFig11Serial evaluates the per-step model for each platform and
// reports the modelled per-step time.
func BenchmarkFig11Serial(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	net := nnp.NewNetwork(nnp.StandardSizes, rng.New(1))
	for _, p := range []perfmodel.Platform{perfmodel.X86, perfmodel.SW, perfmodel.SWOpt} {
		b.Run(p.String(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = perfmodel.SerialStep(p, tb, net).Total()
			}
			b.ReportMetric(total*1e3, "model-ms/step")
		})
	}
}

// --- Table 1: memory ------------------------------------------------------------

// BenchmarkTable1Memory evaluates the memory model and reports the
// per-atom figures of both layouts.
func BenchmarkTable1Memory(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	var open, tensor float64
	for i := 0; i < b.N; i++ {
		_ = memmodel.Table1(tb)
		open, tensor = memmodel.PerAtomBytes(tb, 8e-6)
	}
	b.ReportMetric(open, "open-B/atom")
	b.ReportMetric(tensor, "tkmc-B/atom")
}

// --- Figs. 12/13: scaling -------------------------------------------------------

func scalingParams() perfmodel.ScalingParams {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	net := nnp.NewNetwork(nnp.StandardSizes, rng.New(1))
	return perfmodel.DefaultScalingParams(perfmodel.SerialStep(perfmodel.SWOpt, tb, net).Total())
}

// BenchmarkFig12StrongScaling runs the strong-scaling sweep simulator and
// reports the terminal efficiency.
func BenchmarkFig12StrongScaling(b *testing.B) {
	p := scalingParams()
	var eff float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := p.PaperStrongScaling()
		eff = pts[len(pts)-1].Efficiency
	}
	b.ReportMetric(eff*100, "%eff@24.96Mcores")
}

// BenchmarkFig13WeakScaling runs the weak-scaling sweep simulator and
// reports the terminal efficiency at 54 trillion atoms.
func BenchmarkFig13WeakScaling(b *testing.B) {
	p := scalingParams()
	var eff float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := p.PaperWeakScaling()
		eff = pts[len(pts)-1].Efficiency
	}
	b.ReportMetric(eff*100, "%eff@54Tatoms")
}

// --- Fig. 14: application --------------------------------------------------------

// BenchmarkFig14Precipitation measures real KMC throughput on the
// application configuration (short cutoff, supersaturated alloy).
func BenchmarkFig14Precipitation(b *testing.B) {
	box := lattice.NewBox(12, 12, 12, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.04, 0.0012, rng.New(12))
	tb := encoding.New(units.LatticeConstantFe, units.CutoffShort)
	params := eam.Default()
	params.RCut = units.CutoffShort
	params.RIn = 4.6
	eng := kmc.NewEngine(box, eam.NewRegionEvaluator(eam.New(params), tb), units.ReactorTemperature, rng.New(13), kmc.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := eng.Step(1e300); !ok {
			b.Fatal("engine exhausted")
		}
	}
	b.StopTimer()
	a := cluster.Analyze(box, 2)
	b.ReportMetric(float64(a.MaxSize), "maxCluster")
}

// --- Kernel benches -------------------------------------------------------------

// BenchmarkFeatureRegion measures the real fast-feature workload: the
// 1+8-state feature computation of one vacancy system (Sec. 3.4).
func BenchmarkFeatureRegion(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	desc := feature.Standard(units.CutoffStandard)
	tab := feature.NewTable(desc, tb.Distances)
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.1, 0.0, rng.New(5))
	center := lattice.Vec{X: 14, Y: 14, Z: 14}
	box.Set(center, lattice.Vacancy)
	vet := tb.NewVET()
	tb.FillVET(vet, center, box.Get)
	out := make([]float64, tb.NRegion*desc.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 9; k++ {
			feature.ComputeRegion(tb, tab, vet, out)
		}
	}
	b.SetBytes(int64(9 * tb.NRegion * tb.NLocal * 6))
}

// BenchmarkNNPRegionEnergy measures one full region-energy evaluation
// with the production network (the per-state cost of Sec. 3.5).
func BenchmarkNNPRegionEnergy(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, nnp.StandardSizes, rng.New(6))
	ev := nnp.NewLatticeEvaluator(pot, tb)
	vet := tb.NewVET()
	for i := range vet {
		vet[i] = lattice.Fe
	}
	vet[0] = lattice.Vacancy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.RegionEnergy(vet)
	}
}

// BenchmarkKMCStepEAM and BenchmarkKMCStepNNP measure end-to-end KMC step
// throughput for both potentials.
func BenchmarkKMCStepEAM(b *testing.B) {
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.02, 0.001, rng.New(7))
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	eng := kmc.NewEngine(box, eam.NewRegionEvaluator(eam.New(eam.Default()), tb), units.ReactorTemperature, rng.New(8), kmc.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := eng.Step(1e300); !ok {
			b.Fatal("exhausted")
		}
	}
}

func BenchmarkKMCStepNNP(b *testing.B) {
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.02, 0.001, rng.New(9))
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, []int{64, 32, 16, 1}, rng.New(10))
	eng := kmc.NewEngine(box, nnp.NewLatticeEvaluator(pot, tb), units.ReactorTemperature, rng.New(11), kmc.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := eng.Step(1e300); !ok {
			b.Fatal("exhausted")
		}
	}
}

// BenchmarkParallelSublattice measures the multi-rank engine end to end
// (wall time per simulated quantum on 4 goroutine ranks).
func BenchmarkParallelSublattice(b *testing.B) {
	mkBox := func() *lattice.Box {
		box := lattice.NewBox(16, 16, 16, units.LatticeConstantFe)
		lattice.FillRandomAlloy(box, 0.02, 0.0005, rng.New(12))
		return box
	}
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	pot := eam.New(eam.Default())
	factory := func() kmc.Model { return eam.NewRegionEvaluator(pot, tb) }
	cfg := sublattice.Config{PX: 2, PY: 2, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 13}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		box := mkBox()
		b.StartTimer()
		_, _ = sublattice.Run(box, cfg, 4e-8, factory)
	}
}

// --- Ablation benches -------------------------------------------------------------

// BenchmarkAblationPropensityTree isolates event selection: the paper's
// sum-tree strategy vs a linear cumulative scan, at a propensity-table
// size typical of a large per-rank vacancy population.
func BenchmarkAblationPropensityTree(b *testing.B) {
	const n = 1 << 14
	weights := make([]float64, n)
	r := rng.New(14)
	for i := range weights {
		weights[i] = r.Float64() + 0.1
	}
	b.Run("tree", func(b *testing.B) {
		t := kmc.NewSumTree(n)
		for i, w := range weights {
			t.Update(i, w)
		}
		rr := rng.New(15)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot := t.Select(rr.Float64() * t.Total())
			t.Update(slot, rr.Float64()+0.1)
		}
	})
	b.Run("linear", func(b *testing.B) {
		w := append([]float64(nil), weights...)
		var total float64
		for _, v := range w {
			total += v
		}
		rr := rng.New(15)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			target := rr.Float64() * total
			var acc float64
			slot := n - 1
			for j, v := range w {
				acc += v
				if target < acc {
					slot = j
					break
				}
			}
			nv := rr.Float64() + 0.1
			total += nv - w[slot]
			w[slot] = nv
		}
	})
}

// BenchmarkAblationVacancyCache compares step cost with the vacancy cache
// enabled vs disabled (every step refills all VETs and rates).
func BenchmarkAblationVacancyCache(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts kmc.Options
	}{
		{"cached", kmc.Options{}},
		{"uncached", kmc.Options{DisableCache: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			box := lattice.NewBox(12, 12, 12, units.LatticeConstantFe)
			lattice.FillRandomAlloy(box, 0.02, 0.002, rng.New(16))
			tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
			eng := kmc.NewEngine(box, eam.NewRegionEvaluator(eam.New(eam.Default()), tb), units.ReactorTemperature, rng.New(17), mode.opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := eng.Step(1e300); !ok {
					b.Fatal("exhausted")
				}
			}
		})
	}
}

// BenchmarkAblationFeatureTable compares the tabulated feature kernel
// (Eq. 6) against direct exponential evaluation (Eq. 5).
func BenchmarkAblationFeatureTable(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	desc := feature.Standard(units.CutoffStandard)
	tab := feature.NewTable(desc, tb.Distances)
	vet := tb.NewVET()
	for i := range vet {
		vet[i] = lattice.Fe
	}
	vet[0] = lattice.Vacancy
	out := make([]float64, desc.Dim())
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			feature.ComputeSite(tb, tab, vet, i%tb.NRegion, out)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			feature.ComputeSiteDirect(tb, desc, vet, i%tb.NRegion, out)
		}
	})
}

// BenchmarkAblationIndexing compares the Eq. 4 direct index computation
// against the POS_ID lookup table it replaces (Sec. 3.3).
func BenchmarkAblationIndexing(b *testing.B) {
	dom := lattice.NewDomain(lattice.Vec{}, lattice.Vec{X: 20, Y: 20, Z: 20}, 9, units.LatticeConstantFe)
	ref := lattice.NewPosIDIndexer(dom)
	var sites []lattice.Vec
	dom.ForEachLocal(func(v lattice.Vec, _ int) { sites = append(sites, v) })
	b.Run("eq4-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = dom.Index(sites[i%len(sites)])
		}
	})
	b.Run("posid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ref.Index(sites[i%len(sites)])
		}
	})
}

// BenchmarkAblationTstop probes the synchronisation-interval sensitivity
// the paper mentions (a larger t_stop cuts communication).
func BenchmarkAblationTstop(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	pot := eam.New(eam.Default())
	factory := func() kmc.Model { return eam.NewRegionEvaluator(pot, tb) }
	for _, tstop := range []float64{1e-8, 2e-8, 8e-8} {
		b.Run(fmt.Sprintf("tstop=%.0e", tstop), func(b *testing.B) {
			cfg := sublattice.Config{PX: 2, PY: 1, PZ: 1, Temperature: units.ReactorTemperature, TStop: tstop, Seed: 18}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				box := lattice.NewBox(12, 12, 12, units.LatticeConstantFe)
				lattice.FillRandomAlloy(box, 0.02, 0.001, rng.New(19))
				b.StartTimer()
				_, _ = sublattice.Run(box, cfg, 8e-8, factory)
			}
		})
	}
}

// BenchmarkModelComparison quantifies the fidelity/speed trade-off the
// paper's introduction frames: the tabulated bond-count model (the
// pre-NNP "first approach") vs the EAM potential vs the full NNP, all
// driving the same engine.
func BenchmarkModelComparison(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	desc := feature.Standard(units.CutoffStandard)
	models := []struct {
		name string
		mk   func() kmc.Model
	}{
		{"bondcount", func() kmc.Model { return bondcount.NewEvaluator(bondcount.FeCu(), tb) }},
		{"eam", func() kmc.Model { return eam.NewRegionEvaluator(eam.New(eam.Default()), tb) }},
		{"nnp", func() kmc.Model {
			pot := nnp.NewPotential(desc, nnp.StandardSizes, rng.New(20))
			return nnp.NewLatticeEvaluator(pot, tb)
		}},
	}
	for _, m := range models {
		b.Run(m.name, func(b *testing.B) {
			box := lattice.NewBox(12, 12, 12, units.LatticeConstantFe)
			lattice.FillRandomAlloy(box, 0.02, 0.002, rng.New(21))
			eng := kmc.NewEngine(box, m.mk(), units.ReactorTemperature, rng.New(22), kmc.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := eng.Step(1e300); !ok {
					b.Fatal("exhausted")
				}
			}
		})
	}
}

// BenchmarkCPEFeatureOperator measures the functional Sec. 3.4 feature
// operator (CPE layout) against the MPE reference path, reporting the
// modelled Sunway times.
func BenchmarkCPEFeatureOperator(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	desc := feature.Standard(units.CutoffStandard)
	tab := feature.NewTable(desc, tb.Distances)
	op := fusion.NewFeatureOperator(tb, tab)
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.1, 0.0, rng.New(23))
	center := lattice.Vec{X: 14, Y: 14, Z: 14}
	box.Set(center, lattice.Vacancy)
	vet := tb.NewVET()
	tb.FillVET(vet, center, box.Get)
	b.Run("cpe", func(b *testing.B) {
		var modelled float64
		for i := 0; i < b.N; i++ {
			cg := sw.NewCoreGroup(sw.SW26010Pro())
			op.Run(cg, vet)
			modelled = cg.Ct.Time(cg.Arch, true)
		}
		b.ReportMetric(modelled*1e6, "model-µs")
	})
	b.Run("mpe", func(b *testing.B) {
		var modelled float64
		for i := 0; i < b.N; i++ {
			cg := sw.NewCoreGroup(sw.MPE())
			op.RunMPE(cg, vet)
			modelled = cg.Ct.Time(cg.Arch, false)
		}
		b.ReportMetric(modelled*1e6, "model-µs")
	})
}

// --- Evaluation service benches ----------------------------------------
//
// BenchmarkHopEnergiesUncached / BenchmarkHopEnergiesCached measure the
// same recurring dilute-alloy workload against the direct NNP evaluator
// and against the shared evaluation service (content-addressed cache +
// batcher). Results accumulate into BENCH_evalserve.json — hit
// rate, ns/op, and the batch-width occupancy sweep — so a bench run
// leaves a machine-readable report next to the human one.

var (
	evalBenchMu     sync.Mutex
	evalBenchReport = map[string]any{}
)

// recordEvalBench merges one measurement into BENCH_evalserve.json.
// The first write of a process folds in whatever report is already on
// disk, so separate bench invocations accumulate instead of clobbering
// each other's keys; every update rewrites the file, so whichever subset
// of the benches ran still leaves a consistent report. The
// cached/uncached speedup is derived once both sides are present.
func recordEvalBench(key string, val any) {
	evalBenchMu.Lock()
	defer evalBenchMu.Unlock()
	if len(evalBenchReport) == 0 {
		if raw, err := os.ReadFile("BENCH_evalserve.json"); err == nil {
			json.Unmarshal(raw, &evalBenchReport)
		}
	}
	evalBenchReport[key] = val
	cached, okC := evalBenchReport["cached_ns_per_op"].(float64)
	uncached, okU := evalBenchReport["uncached_ns_per_op"].(float64)
	if okC && okU && cached > 0 {
		evalBenchReport["speedup"] = uncached / cached
	}
	js, err := json.MarshalIndent(evalBenchReport, "", "  ")
	if err != nil {
		return
	}
	os.WriteFile("BENCH_evalserve.json", append(js, '\n'), 0o644)
}

// evalBenchWorkload builds the shared fixture: a short-cutoff NNP and a
// recurring set of vacancy environments from a dilute Fe–Cu box — the
// production access pattern the cache exploits (Sec. 3.2).
func evalBenchWorkload(n int) (*nnp.Potential, *encoding.Tables, []encoding.VET) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffShort)
	desc := feature.Standard(units.CutoffShort)
	pot := nnp.NewPotential(desc, []int{desc.Dim(), 32, 16, 1}, rng.New(40))
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.05, 0.0, rng.New(41))
	r := rng.New(42)
	vets := make([]encoding.VET, 0, n)
	for len(vets) < n {
		c := lattice.Vec{X: 2 * int(r.Uint64()%14), Y: 2 * int(r.Uint64()%14), Z: 2 * int(r.Uint64()%14)}
		old := box.Get(c)
		box.Set(c, lattice.Vacancy)
		vet := tb.NewVET()
		tb.FillVET(vet, c, box.Get)
		box.Set(c, old)
		vets = append(vets, vet)
	}
	return pot, tb, vets
}

func BenchmarkHopEnergiesUncached(b *testing.B) {
	pot, tb, vets := evalBenchWorkload(32)
	ev := nnp.NewLatticeEvaluator(pot, tb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.HopEnergies(vets[i%len(vets)])
	}
	b.StopTimer()
	recordEvalBench("uncached_ns_per_op", float64(b.Elapsed().Nanoseconds())/float64(b.N))
}

func BenchmarkHopEnergiesCached(b *testing.B) {
	pot, tb, vets := evalBenchWorkload(32)
	srv := evalserve.New(evalserve.NewFusionBackend(pot, tb, evalserve.F64), evalserve.Options{Capacity: 1 << 12})
	defer srv.Close()
	// Warm pass: the recurring environments enter the cache here, so the
	// timed loop measures the steady state the paper's cache targets.
	for _, vet := range vets {
		srv.HopEnergies(vet)
	}
	pre := srv.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.HopEnergies(vets[i%len(vets)])
	}
	b.StopTimer()
	st := srv.Stats()
	hits, misses := st.Hits-pre.Hits, st.Misses-pre.Misses
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	b.ReportMetric(100*hitRate, "%hit")
	recordEvalBench("cached_ns_per_op", float64(b.Elapsed().Nanoseconds())/float64(b.N))
	recordEvalBench("hit_rate", hitRate)
}

// BenchmarkEvalSpeculativeOccupancy runs a real serial KMC trajectory
// through the evaluation service with speculative prefetching on and
// records the true drained-batch occupancy histogram (mean/p50/max) plus
// the speculation counters — the headline numbers of the batching-and-
// speculation design (DESIGN.md §10). A synchronous single engine on its
// own can only ever produce width-1 batches; speculation is what fills
// the remaining width, so occupancy mean well above 1 here is the
// system working end to end.
func BenchmarkEvalSpeculativeOccupancy(b *testing.B) {
	var st evalserve.Stats
	for i := 0; i < b.N; i++ {
		desc := feature.Standard(units.CutoffStandard)
		pot := nnp.NewPotential(desc, []int{desc.Dim(), 12, 1}, rng.New(9))
		sim, err := core.New(core.Config{
			Cells: [3]int{10, 10, 10}, CuFraction: 0.02, VacancyFraction: 0.001,
			Seed: 11, Potential: core.NNP, Net: pot,
			EvalCache: 1 << 15, EvalSpeculate: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(4e-7, nil); err != nil {
			b.Fatal(err)
		}
		st, _ = sim.EvalStats()
		sim.Close()
	}
	b.ReportMetric(st.Occupancy(), "occupancy")
	b.ReportMetric(float64(st.SpecWarmHits), "warm-hits")
	recordEvalBench("batch_occupancy_mean", st.Occupancy())
	recordEvalBench("batch_occupancy_p50", st.OccupancyP50())
	recordEvalBench("batch_occupancy_max", st.MaxBatchWidth)
	recordEvalBench("spec_enqueued", st.SpecEnqueued)
	recordEvalBench("spec_batched", st.SpecBatched)
	recordEvalBench("spec_warm_hits", st.SpecWarmHits)
	recordEvalBench("spec_hit_rate", st.HitRate())
}

// BenchmarkEvalBatchWidth sweeps the backend batch width: the per-system
// cost when many engines miss concurrently, which CI gates at width 64
// against width 1.
func BenchmarkEvalBatchWidth(b *testing.B) {
	pot, tb, vets := evalBenchWorkload(64)
	for _, width := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			fb := evalserve.NewFusionBackend(pot, tb, evalserve.F64)
			batch := make([]encoding.VET, width)
			for i := range batch {
				batch[i] = vets[i%len(vets)]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fb.EvaluateBatch(batch)
			}
			b.StopTimer()
			perSystem := float64(b.Elapsed().Nanoseconds()) / float64(b.N*width)
			b.ReportMetric(perSystem, "ns/system")
			recordEvalBench(fmt.Sprintf("batch_width_%d_ns_per_system", width), perSystem)
		})
	}
}

// BenchmarkAblationFastHopEnergies compares the exact full-resummation
// hop evaluator against the incremental (delta-patched) one.
func BenchmarkAblationFastHopEnergies(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	pot := eam.New(eam.Default())
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.1, 0.0, rng.New(30))
	center := lattice.Vec{X: 14, Y: 14, Z: 14}
	box.Set(center, lattice.Vacancy)
	vet := tb.NewVET()
	tb.FillVET(vet, center, box.Get)
	b.Run("exact", func(b *testing.B) {
		ev := eam.NewRegionEvaluator(pot, tb)
		for i := 0; i < b.N; i++ {
			ev.HopEnergies(vet)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		ev := eam.NewFastRegionEvaluator(pot, tb)
		for i := 0; i < b.N; i++ {
			ev.HopEnergies(vet)
		}
	})
}
