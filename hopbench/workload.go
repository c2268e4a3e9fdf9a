package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tensorkmc/internal/core"
	"tensorkmc/internal/nnp"
)

// The paper's alloy and conditions, shared by every workload.
const (
	cuFraction  = 0.0134 // 1.34 % Cu
	temperature = 573.0  // K
	cutoff      = 6.5    // Å
)

// potFile is the checked-in bench potential, trained by
//
//	tkmc-train -structures 160 -train 130 -epochs 300 -sizes 64,32,16,1 -seed 1
//
// and potSHA256 its digest, verified before every load.
const (
	potFile   = "bench.pot"
	potSHA256 = "30fc728d432d6a0fe98bcf8529d6b538b620518dbab1f16773b011fec4f8af64"
)

// cacheEntries sizes nnp-cached's evaluation cache (evalserve default).
const cacheEntries = 1 << 15

// workload is one reference deck. Every attempt runs the whole deck
// from the seed, so all attempts of one seed do identical work and end
// on the same checkpoint.
type workload struct {
	name string
	why  string
	// declared workloads are listed in BENCHMARK.json: they run without
	// failures at this commit. eam-serial runs without failures too, but
	// is left out so that the two listed workloads fit longer runs into
	// the benchmark's time budget; it still runs by name, under
	// --workload all, and as eam-parallel's serial twin.
	declared bool
	nnp      bool
	cached   bool
	cells    int
	vacancy  float64
	ranks    [3]int
	// duration is the simulated seconds one attempt runs; segment is
	// the checkpoint interval of a parallel run (one sublattice.Run
	// call per segment, an fsynced checkpoint after each).
	duration float64
	segment  float64
	// ref names the workload whose reference digest, golden or
	// computed by its stack, this one is checked against (nnp-cached
	// against the direct path: the cache contract is byte-identity).
	ref string
	// twin is the serial workload on the same box, run beside a traced
	// parallel run for sublattice.scaling_eff.
	twin string
}

var workloads = []workload{
	{
		name:     "nnp-direct",
		why:      "serial engine on the bench NNP over the eam-serial box, no service: feature plus forward are almost all of a hop; bypasses evalserve and sublattice",
		declared: true, nnp: true, cells: 48, vacancy: 2e-4, duration: 8e-8,
	},
	{
		name: "nnp-cached",
		why:  "nnp-direct through the shared evalserve cache over the fused f64 backend: hits beside evaluating misses; must end byte-identical to nnp-direct",
		nnp:  true, cached: true, cells: 48, vacancy: 2e-4, duration: 8e-8, ref: "nnp-direct",
	},
	{
		name:  "eam-serial",
		why:   "serial engine on cheap EAM evaluation over 221,184 sites, so the kmc engine's own work shows; bypasses nnp, evalserve and sublattice",
		cells: 48, vacancy: 2e-4, duration: 1e-6,
	},
	{
		name:     "eam-parallel",
		why:      "the eam-serial box on 2x1x1 sublattice ranks with an fsynced checkpoint per segment: the only sector-exchange and persistence path",
		declared: true, cells: 48, vacancy: 2e-4, ranks: [3]int{2, 1, 1}, duration: 1e-6, segment: 2e-7,
		twin: "eam-serial",
	},
}

// hasGolden reports whether golden.go covers w: every declared workload
// and the serial twin a declared workload runs beside.
func hasGolden(w workload) bool {
	for _, d := range workloads {
		if d.declared && (d.name == w.name || d.twin == w.name) {
			return true
		}
	}
	return false
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) parallel() bool { return w.ranks[0]*w.ranks[1]*w.ranks[2] > 1 }

// config is the workload's core configuration for one seed. ckpt is the
// checkpoint path of a parallel run.
func (w workload) config(seed uint64, net *nnp.Potential, ckpt string) core.Config {
	cfg := core.Config{
		Cells:           [3]int{w.cells, w.cells, w.cells},
		CuFraction:      cuFraction,
		VacancyFraction: w.vacancy,
		Temperature:     temperature,
		Cutoff:          cutoff,
		Seed:            seed,
	}
	if w.nnp {
		cfg.Potential = core.NNP
		cfg.Net = net
	}
	if w.cached {
		cfg.EvalCache = cacheEntries
	}
	if w.parallel() {
		cfg.Ranks = w.ranks
		cfg.CheckpointPath = ckpt
		cfg.CheckpointEvery = w.segment
	}
	return cfg
}

// verifyPotential checks the bench potential's digest.
func verifyPotential(dataDir string) error {
	raw, err := os.ReadFile(filepath.Join(dataDir, potFile))
	if err != nil {
		return err
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != potSHA256 {
		return fmt.Errorf("bench potential %s has sha256 %s, want %s", potFile, got, potSHA256)
	}
	return nil
}

// record is what one child process reports about one attempt.
type record struct {
	Error  string  `json:"error,omitempty"`
	SetupS float64 `json:"setup_s"`
	// RunS is the wall time of the run phase and Hops the hops it
	// executed (up to the failure, for a failed attempt).
	RunS   float64 `json:"run_s"`
	Hops   int64   `json:"hops"`
	Digest string  `json:"digest,omitempty"`
	HeapMB float64 `json:"heap_mb"`
	// Layers and Ledger are the traced run's per-layer metrics and
	// self-time split.
	Layers map[string]float64 `json:"layers,omitempty"`
	Ledger []ledgerRow        `json:"ledger,omitempty"`
}

// digest hashes a checkpoint's TKMCBOX2 bytes.
func digest(c *core.Checkpoint) (string, error) {
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// runCore is the untraced attempt: the workload as a user runs it,
// through core.New, Simulation.Run and Checkpoint. A panic or error
// ends the attempt with the hops executed so far.
func runCore(w workload, seed uint64, dataDir, workDir string) (rec record) {
	var sim *core.Simulation
	var runStart time.Time
	defer func() {
		if p := recover(); p != nil {
			rec.Error = fmt.Sprintf("panic: %v", p)
			if sim != nil {
				rec.Hops = sim.Hops()
				rec.RunS = time.Since(runStart).Seconds()
			}
		}
	}()
	if w.nnp {
		if err := verifyPotential(dataDir); err != nil {
			rec.Error = err.Error()
			return rec
		}
	}
	start := time.Now()
	var net *nnp.Potential
	var err error
	if w.nnp {
		if net, err = nnp.LoadFile(filepath.Join(dataDir, potFile)); err != nil {
			rec.Error = err.Error()
			return rec
		}
	}
	if sim, err = core.New(w.config(seed, net, filepath.Join(workDir, "ckpt.tkmc"))); err != nil {
		rec.Error = err.Error()
		return rec
	}
	rec.SetupS = time.Since(start).Seconds()
	defer sim.Close()

	runStart = time.Now()
	_, err = sim.Run(w.duration, nil)
	rec.RunS = time.Since(runStart).Seconds()
	rec.Hops = sim.Hops()
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	rec.HeapMB = liveHeapMB()
	runtime.KeepAlive(sim)
	if rec.Digest, err = digest(sim.Checkpoint()); err != nil {
		rec.Error = err.Error()
	}
	return rec
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
