package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"tensorkmc/internal/core"
	"tensorkmc/internal/evalserve"
	"tensorkmc/internal/nnp"
)

// TestMain lets the test binary stand in for the benchmark binary when
// bench spawns it as a child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// short returns the named workload cut down to a few dozen hops.
func short(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.cells = 20
	w.duration = 4e-8
	if w.parallel() {
		w.segment = 2e-8
	}
	if w.nnp {
		w.duration = 2e-8
	}
	return w
}

// TestWrappersTransparent runs short decks through core, through the
// unwrapped stack and through the traced stack: all three must end on
// one checkpoint, and the traced ledger must add up to its wall time.
// (nnp-cached is compared with itself here; its check against the direct
// path is the benchmark's reference digest.)
func TestWrappersTransparent(t *testing.T) {
	for _, name := range []string{"eam-serial", "eam-parallel", "nnp-direct", "nnp-cached"} {
		t.Run(name, func(t *testing.T) {
			w := short(t, name)
			core := runCore(w, 3, "data", t.TempDir())
			ref := runStack(w, 3, "data", t.TempDir(), false)
			traced := runStack(w, 3, "data", t.TempDir(), true)
			for path, r := range map[string]record{"core": core, "stack": ref, "traced": traced} {
				if r.Error != "" {
					t.Fatalf("%s attempt failed: %s", path, r.Error)
				}
			}
			if core.Hops == 0 {
				t.Fatal("deck executed no hops")
			}
			if core.Digest != ref.Digest || core.Digest != traced.Digest {
				t.Fatalf("digests differ: core %s, stack %s, traced %s", core.Digest, ref.Digest, traced.Digest)
			}
			if core.Hops != traced.Hops {
				t.Fatalf("hops differ: core %d, traced %d", core.Hops, traced.Hops)
			}
			var sum, frac float64
			for _, row := range traced.Ledger {
				sum += row.SelfS
				frac += row.Frac
			}
			if math.Abs(frac-1) > 1e-9 {
				t.Fatalf("ledger shares sum to %v, want 1 (%+v)", frac, traced.Ledger)
			}
			if sum <= 0 || sum > traced.RunS {
				t.Fatalf("ledger sums to %vs, run phase %vs", sum, traced.RunS)
			}
			if traced.Layers["kmc.evals_per_hop"] <= 0 || traced.Layers["encoding.fillvet_us"] <= 0 ||
				w.cached && traced.Layers["fusion.systems_per_batch"] <= 0 {
				t.Fatalf("traced run missed its layers: %v", traced.Layers)
			}
		})
	}
}

// TestStackMatchesCore: the settings the stack assembles with by hand
// are the ones core.New derives for every workload, and core hands its
// engine the same kind of model. A change to core's assembly that the
// stack does not follow fails here instead of drifting unseen.
func TestStackMatchesCore(t *testing.T) {
	net, err := nnp.LoadFile(filepath.Join("data", potFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sim, err := core.New(w.config(1, net, filepath.Join(t.TempDir(), "ckpt.tkmc")))
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			s := newStack(w, 1, net, nil)
			defer s.close()
			cfg, set := sim.Cfg, s.set
			if cfg.Options != set.engine {
				t.Errorf("engine options: core %+v, stack %+v", cfg.Options, set.engine)
			}
			if cfg.TStop != set.tstop || cfg.ExchangeTimeout != set.exchangeTimeout {
				t.Errorf("t_stop, exchange timeout: core %v, %v; stack %v, %v", cfg.TStop, cfg.ExchangeTimeout, set.tstop, set.exchangeTimeout)
			}
			if cfg.Chaos != nil || cfg.Telemetry != nil {
				t.Errorf("core runs with chaos %v, telemetry %v; the stack with neither", cfg.Chaos, cfg.Telemetry)
			}
			var eval evalserve.Options
			prec := evalserve.F64
			if cfg.EvalCache > 0 {
				eval = evalserve.Options{Capacity: cfg.EvalCache, Shards: cfg.EvalShards, MaxBatch: cfg.EvalBatch,
					Workers: cfg.EvalWorkers, Telemetry: cfg.Telemetry}.WithDefaults()
				if cfg.EvalF32 {
					prec = evalserve.F32
				}
			}
			if eval != set.eval || prec != set.prec {
				t.Errorf("evaluation service: core %+v %v, stack %+v %v", eval, prec, set.eval, set.prec)
			}
			if st, ok := sim.EvalStats(); ok != w.cached || ok && len(st.Shards) != set.eval.Shards {
				t.Errorf("core's evaluation service: %v with %d shards, stack %v with %d", ok, len(st.Shards), w.cached, set.eval.Shards)
			}
			if got, want := fmt.Sprintf("%T", sim.Model()), fmt.Sprintf("%T", s.mk()); got != want {
				t.Errorf("model: core %s, stack %s", got, want)
			}
		})
	}
}

// TestGoldenDigests: every workload has golden digests, and an untraced
// run through core at seed 1 of every workload golden.go covers ends on
// its golden digest. nnp-cached is checked against nnp-direct's.
func TestGoldenDigests(t *testing.T) {
	for _, w := range workloads {
		ref := w.name
		if w.ref != "" {
			ref = w.ref
		}
		if len(golden[ref]) == 0 {
			t.Errorf("%s: no golden digests for %s", w.name, ref)
		}
		if hasGolden(w) && !testing.Short() {
			if rec := runCore(w, 1, "data", t.TempDir()); rec.Error != "" || rec.Digest != golden[ref][1] {
				t.Errorf("%s at seed 1: digest %s (error %q), golden %s", w.name, rec.Digest, rec.Error, golden[ref][1])
			}
		}
	}
}

// TestSelfTimesPartition checks the ledger arithmetic on hand-made spans,
// including two overlapping rank spans of one layer.
func TestSelfTimesPartition(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{layer: layerRun, parent: -1, start: 0, end: 100 * ms},
		{layer: layerSublattice, parent: 0, start: 10 * ms, end: 90 * ms},
		{layer: layerModel, parent: 1, start: 20 * ms, end: 40 * ms}, // rank 0
		{layer: layerModel, parent: 1, start: 30 * ms, end: 50 * ms}, // rank 1
		{layer: layerCore, parent: 0, start: 90 * ms, end: 95 * ms},
	}
	self, wall := selfTimes(spans, 0)
	want := [numLayers]time.Duration{layerRun: 15 * ms, layerSublattice: 50 * ms, layerCore: 5 * ms, layerModel: 30 * ms}
	if self != want || wall != 100*ms {
		t.Fatalf("self %v wall %v, want %v and 100ms", self, wall, want)
	}
}

func testOptions(t *testing.T) options {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return options{seed: 1, dataDir: "data", workDir: t.TempDir(), deadline: time.Minute, exe: exe}
}

// TestWrongDigestFails: an attempt that ends on another digest than the
// reference counts as a failure.
func TestWrongDigestFails(t *testing.T) {
	opts := testOptions(t)
	opts.ref = strings.Repeat("0", 64)
	w, _ := findWorkload("eam-serial")
	res := bench(w, opts, io.Discard)
	if res.Attempted != 1 || res.Failed != 1 || res.Correct {
		t.Fatalf("got %+v, want one failed attempt", res)
	}
	if res.Metrics["hops_per_s"].Value <= 0 {
		t.Fatalf("a failed attempt should still report its speed: %+v", res.Metrics)
	}
}

// TestDeadlineFails: a child that passes its deadline is killed and
// counted as a failure, and no further attempts start.
func TestDeadlineFails(t *testing.T) {
	opts := testOptions(t)
	opts.ref = strings.Repeat("0", 64)
	opts.deadline = 50 * time.Millisecond
	opts.seconds = 30
	w, _ := findWorkload("nnp-direct")
	start := time.Now()
	res := bench(w, opts, io.Discard)
	if res.Attempted != 1 || res.Failed != 1 || res.Correct {
		t.Fatalf("got %+v, want one failed attempt", res)
	}
	if time.Since(start) > 20*time.Second {
		t.Fatalf("bench kept running %v after a deadline miss", time.Since(start))
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the benchmark prints.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricNamesMatchBenchmarkJSON: the metrics printed for every
// declared workload, untraced and traced, are exactly BENCHMARK.json's,
// with its units; nnp-cached adds only the evaluation-service metrics.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	var e2e, layers []string
	for _, m := range bf.EndToEnd {
		units[m.Name] = m.Unit
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		units[m.Name] = m.Unit
		layers = append(layers, m.Name)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name+": "+w.Why)
	}
	var ours []string
	for _, w := range workloads {
		if w.declared {
			ours = append(ours, w.name+": "+w.why)
		}
	}
	if strings.Join(declared, "\n") != strings.Join(ours, "\n") {
		t.Fatalf("BENCHMARK.json workloads\n%v\ndeclared here\n%v", declared, ours)
	}
	var extra []string
	for _, m := range cachedLayer {
		extra = append(extra, m.name)
	}

	fake := []attempt{
		{mode: "run", rec: record{Hops: 10, RunS: 1, SetupS: 0.1, HeapMB: 1}},
		{mode: "traced", rec: record{Hops: 10, RunS: 1, Layers: map[string]float64{}}},
		{mode: "twin", rec: record{Hops: 10, RunS: 1}},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := summarise(w, options{trace: traced}, fake, io.Discard)
			want := e2e
			if traced {
				want = layers
				if w.cached {
					want = append(append([]string(nil), layers...), extra...)
				}
			}
			var got []string
			for name, v := range res.Metrics {
				got = append(got, name)
				if u, ok := units[name]; ok && u != v.Unit {
					t.Errorf("%s: %s printed in %s, BENCHMARK.json says %s", w.name, name, v.Unit, u)
				}
			}
			sort.Strings(got)
			want = append([]string(nil), want...)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s traced=%v prints\n%v\nwant\n%v", w.name, traced, got, want)
			}
		}
	}
}
