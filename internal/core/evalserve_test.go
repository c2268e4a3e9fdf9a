package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// checkpointBytes runs the simulation and returns its final TKMCBOX2
// checkpoint image — box, clock, hop count and RNG state — so two runs
// can be compared byte for byte.
func checkpointBytes(t *testing.T, cfg Config, duration float64) []byte {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(duration, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "final.tkmcbox")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := s.EvalStats(); ok {
		t.Logf("%s", st.String())
		if st.Hits+st.Misses == 0 {
			t.Fatal("evaluation service enabled but never consulted")
		}
	}
	return raw
}

// TestEvalCacheBitIdentical is the subsystem's acceptance contract: a
// dilute Fe–Cu run through the evaluation service (cache + batcher) must
// produce a byte-identical final checkpoint — same trajectory, same
// clock, same RNG state — as the direct uncached run.
func TestEvalCacheBitIdentical(t *testing.T) {
	base := Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.0134, VacancyFraction: 0.002,
		Seed: 42,
	}
	const duration = 4e-7

	plain := checkpointBytes(t, base, duration)

	cached := base
	cached.EvalCache = 1 << 12
	cached.EvalWorkers = 2
	served := checkpointBytes(t, cached, duration)

	if !bytes.Equal(plain, served) {
		t.Fatal("cached run's final checkpoint differs from the uncached run")
	}
}

// TestEvalCacheBitIdenticalNNP repeats the contract on the fused NNP
// batch path (the wide-matrix f64 big-fusion evaluation).
func TestEvalCacheBitIdenticalNNP(t *testing.T) {
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, []int{desc.Dim(), 12, 1}, rng.New(9))
	base := Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.02, VacancyFraction: 0.001,
		Seed: 11, Potential: NNP, Net: pot,
	}
	const duration = 1e-7

	plain := checkpointBytes(t, base, duration)

	cached := base
	cached.EvalCache = 1 << 12
	served := checkpointBytes(t, cached, duration)

	if !bytes.Equal(plain, served) {
		t.Fatal("fused NNP cached run diverged from the direct run")
	}
}

// TestEvalCacheDivacancyNNP repeats the NNP contract on a box holding a
// divacancy: two vacancies at first-neighbour distance, so each closes
// one hop direction of the other's system. The settings are those of
// hopbench/decks/cached-divacancy.deck (Cu 1.34 %, 573 K, 6.5 Å cutoff,
// seed 1, 8e-8 s, a 32768-entry cache) on a test-sized box.
func TestEvalCacheDivacancyNNP(t *testing.T) {
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, []int{desc.Dim(), 32, 16, 1}, rng.New(1))
	box := lattice.NewBox(10, 10, 10, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.0134, 0.002, rng.New(1))
	vacs := lattice.Vacancies(box)
	if len(vacs) == 0 {
		t.Fatal("no vacancy to pair")
	}
	box.Set(box.Wrap(vacs[0].Add(lattice.NN1[2])), lattice.Vacancy)
	base := Config{
		InitialBox: box, Temperature: 573, Cutoff: 6.5,
		Seed: 1, Potential: NNP, Net: pot,
	}
	const duration = 8e-8

	plain := checkpointBytes(t, base, duration)

	cached := base
	cached.EvalCache = 32768
	served := checkpointBytes(t, cached, duration)

	if !bytes.Equal(plain, served) {
		t.Fatal("cached NNP run on a divacancy diverged from the direct run")
	}
}

// TestEvalCacheParallelShared: the parallel engine's ranks share one
// service; the run must complete and the counters must show traffic.
func TestEvalCacheParallelShared(t *testing.T) {
	s, err := New(Config{
		Cells: [3]int{16, 16, 16}, CuFraction: 0.03, VacancyFraction: 0.001,
		Seed: 5, Ranks: [3]int{2, 1, 1}, EvalCache: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(5e-8, nil); err != nil {
		t.Fatal(err)
	}
	st, ok := s.EvalStats()
	if !ok {
		t.Fatal("evaluation service not enabled")
	}
	if st.Misses == 0 {
		t.Fatalf("parallel ranks never reached the shared service: %+v", st)
	}
	s.Close()
	s.Close() // idempotent
}
