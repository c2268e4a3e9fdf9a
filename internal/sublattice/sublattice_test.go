package sublattice

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/mpi"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

func mustRun(t testing.TB, box *lattice.Box, cfg Config, duration float64, factory func() kmc.Model) *Result {
	t.Helper()
	res, err := Run(box, cfg, duration, factory)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func eamFactory() func() kmc.Model {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	pot := eam.New(eam.Default())
	return func() kmc.Model { return eam.NewRegionEvaluator(pot, tb) }
}

func alloyBox(n int, cuFrac, vacFrac float64, seed uint64) *lattice.Box {
	box := lattice.NewBox(n, n, n, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, cuFrac, vacFrac, rng.New(seed))
	return box
}

func TestConservationAcrossRanks(t *testing.T) {
	box := alloyBox(16, 0.03, 0.001, 1)
	fe0, cu0, vac0 := box.Count()
	cfg := Config{PX: 2, PY: 2, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 2}
	res := mustRun(t, box, cfg, 1e-7, eamFactory())
	fe1, cu1, vac1 := res.Box.Count()
	if fe0 != fe1 || cu0 != cu1 || vac0 != vac1 {
		t.Fatalf("species not conserved: (%d,%d,%d) -> (%d,%d,%d)", fe0, cu0, vac0, fe1, cu1, vac1)
	}
	var hops int64
	for _, s := range res.Stats {
		hops += s.Hops
	}
	if hops == 0 {
		t.Fatal("no hops executed")
	}
	if res.Time != 1e-7 {
		t.Fatalf("Time = %v", res.Time)
	}
	// The input box must be untouched.
	fe2, cu2, vac2 := box.Count()
	if fe2 != fe0 || cu2 != cu0 || vac2 != vac0 {
		t.Fatal("input box was modified")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{PX: 2, PY: 1, PZ: 2, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 9}
	a := mustRun(t, alloyBox(16, 0.05, 0.001, 3), cfg, 1e-7, eamFactory())
	b := mustRun(t, alloyBox(16, 0.05, 0.001, 3), cfg, 1e-7, eamFactory())
	if !a.Box.Equal(b.Box) {
		t.Fatal("same seed produced different final configurations")
	}
	for r := range a.Stats {
		if a.Stats[r] != b.Stats[r] {
			t.Fatalf("rank %d stats differ: %+v vs %+v", r, a.Stats[r], b.Stats[r])
		}
	}
}

// TestGhostConsistency reconstructs the per-rank state after a run and
// verifies every rank's ghost region agrees with the authoritative owner
// — the invariant the sector synchronisation must maintain.
func TestGhostConsistency(t *testing.T) {
	box := alloyBox(16, 0.05, 0.002, 5)
	cfg := Config{PX: 2, PY: 2, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 6}
	factory := eamFactory()
	nRanks := cfg.Ranks()
	ranks := make([]*rankState, nRanks)
	mpi.Run(nRanks, func(c *mpi.Comm) {
		r := newRank(c, box, cfg, factory())
		if err := r.run(1e-7); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		ranks[c.Rank()] = r
	})
	// Authoritative global state from local regions.
	global := lattice.NewBox(box.Nx, box.Ny, box.Nz, box.A)
	for _, r := range ranks {
		r.dom.ForEachLocal(func(v lattice.Vec, idx int) {
			global.Set(v, r.dom.Types()[idx])
		})
	}
	for rankID, r := range ranks {
		r.dom.ForEachGhost(func(v lattice.Vec, idx int) {
			if got, want := r.dom.Types()[idx], global.Get(v); got != want {
				t.Fatalf("rank %d ghost at %v = %v, owner says %v", rankID, v, got, want)
			}
		})
		// Vacancy bookkeeping must match the lattice.
		for _, sys := range r.systems {
			if r.dom.Get(sys.center) != lattice.Vacancy {
				t.Fatalf("rank %d tracks non-vacancy at %v", rankID, sys.center)
			}
		}
	}
}

// TestPureFeHopRate checks the parallel engine's physics against the
// analytic expectation: in pure Fe every hop has ΔE = 0, so each vacancy
// hops at 8·Γ₀·exp(−0.65/kT) and the total hop count over a duration is
// Poisson with a known mean — the same mean the serial engine has.
func TestPureFeHopRate(t *testing.T) {
	box := lattice.NewBox(16, 16, 16, units.LatticeConstantFe)
	// Scatter a few well-separated vacancies.
	positions := []lattice.Vec{
		{X: 2, Y: 2, Z: 2}, {X: 18, Y: 2, Z: 2}, {X: 2, Y: 18, Z: 2}, {X: 2, Y: 2, Z: 18},
		{X: 18, Y: 18, Z: 2}, {X: 18, Y: 2, Z: 18}, {X: 2, Y: 18, Z: 18}, {X: 18, Y: 18, Z: 18},
	}
	for _, v := range positions {
		box.Set(v, lattice.Vacancy)
	}
	cfg := Config{PX: 2, PY: 2, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 11}
	const duration = 2e-7
	res := mustRun(t, box, cfg, duration, eamFactory())
	var hops int64
	for _, s := range res.Stats {
		hops += s.Hops
	}
	perHop := units.ArrheniusRate(units.EA0Fe, units.ReactorTemperature)
	mean := float64(len(positions)) * 8 * perHop * duration
	sigma := math.Sqrt(mean)
	if math.Abs(float64(hops)-mean) > 5*sigma {
		t.Fatalf("hops = %d, want %v ± %v", hops, mean, 5*sigma)
	}
}

// TestSerialParallelStatisticalAgreement compares total hop counts of the
// serial engine and a 4-rank parallel run on identical pure-Fe systems:
// means must agree within combined Poisson error.
func TestSerialParallelStatisticalAgreement(t *testing.T) {
	mk := func() *lattice.Box {
		box := lattice.NewBox(16, 16, 16, units.LatticeConstantFe)
		for _, v := range []lattice.Vec{
			{X: 4, Y: 4, Z: 4}, {X: 20, Y: 4, Z: 4}, {X: 4, Y: 20, Z: 4}, {X: 4, Y: 4, Z: 20},
		} {
			box.Set(v, lattice.Vacancy)
		}
		return box
	}
	const duration = 2e-7
	factory := eamFactory()

	serialBox := mk()
	serial := kmc.NewEngine(serialBox, factory(), units.ReactorTemperature, rng.New(21), kmc.Options{})
	serial.RunUntil(duration)

	cfg := Config{PX: 2, PY: 2, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 22}
	res := mustRun(t, mk(), cfg, duration, factory)
	var parallelHops int64
	for _, s := range res.Stats {
		parallelHops += s.Hops
	}
	mean := float64(serial.Steps())
	sigma := math.Sqrt(mean + float64(parallelHops))
	if math.Abs(mean-float64(parallelHops)) > 5*sigma {
		t.Fatalf("serial %v hops vs parallel %v hops (σ=%v)", mean, parallelHops, sigma)
	}
}

// TestVacancyMigratesAcrossRanks drives a single vacancy long enough that
// it must cross domain boundaries, exercising emigration/adoption.
func TestVacancyMigratesAcrossRanks(t *testing.T) {
	box := lattice.NewBox(12, 12, 12, units.LatticeConstantFe)
	box.Set(lattice.Vec{X: 11, Y: 11, Z: 11}, lattice.Vacancy) // near the 2x2x2 rank corner
	cfg := Config{PX: 2, PY: 2, PZ: 2, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 13}
	res := mustRun(t, box, cfg, 5e-7, eamFactory())
	_, _, vac := res.Box.Count()
	if vac != 1 {
		t.Fatalf("vacancy count = %d after migration, want 1", vac)
	}
	// With ~100 expected hops the walker crosses boundaries with
	// overwhelming probability; at least two ranks must have executed
	// hops.
	ranksWithHops := 0
	var total int64
	for _, s := range res.Stats {
		if s.Hops > 0 {
			ranksWithHops++
		}
		total += s.Hops
	}
	if total < 20 {
		t.Fatalf("only %d hops executed", total)
	}
	if ranksWithHops < 2 {
		t.Fatalf("vacancy never crossed rank boundaries (hops on %d ranks)", ranksWithHops)
	}
}

func TestSingleRankMatchesItself(t *testing.T) {
	// PX=PY=PZ=1 exercises the self-image (undivided axis) code path.
	box := alloyBox(12, 0.05, 0.002, 15)
	cfg := Config{PX: 1, PY: 1, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 16}
	fe0, cu0, vac0 := box.Count()
	res := mustRun(t, box, cfg, 1e-7, eamFactory())
	fe1, cu1, vac1 := res.Box.Count()
	if fe0 != fe1 || cu0 != cu1 || vac0 != vac1 {
		t.Fatal("single-rank run broke conservation")
	}
}

func TestConfigValidation(t *testing.T) {
	box := alloyBox(12, 0.01, 0.001, 17)
	factory := eamFactory()
	for name, cfg := range map[string]Config{
		"zero ranks":   {PX: 0, PY: 1, PZ: 1, Temperature: 573, TStop: 1e-8},
		"non-dividing": {PX: 5, PY: 1, PZ: 1, Temperature: 573, TStop: 1e-8},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			_, _ = Run(box, cfg, 1e-8, factory)
		}()
	}
}

func TestDefaultTStop(t *testing.T) {
	if DefaultTStop != 2e-8 {
		t.Fatalf("DefaultTStop = %v, want the paper's 2e-8 s", DefaultTStop)
	}
	box := alloyBox(12, 0.0, 0.001, 19)
	cfg := Config{PX: 1, PY: 1, PZ: 1, Temperature: 573, Seed: 20} // TStop defaulted
	res := mustRun(t, box, cfg, 4e-8, eamFactory())
	if res.Time != 4e-8 {
		t.Fatalf("Time = %v", res.Time)
	}
}

func TestSuggestTStop(t *testing.T) {
	// At 573 K in pure Fe the per-vacancy propensity is 8·Γ(0.65 eV);
	// asking for ~2 hops per window should land near the paper's 2e-8 s.
	rate := 8 * units.ArrheniusRate(units.EA0Fe, units.ReactorTemperature)
	got := SuggestTStop(rate, 2)
	if got < 1e-8 || got > 4e-8 {
		t.Fatalf("SuggestTStop = %v, expected near the paper's 2e-8 s", got)
	}
	// Larger targets mean longer quanta (less communication).
	if SuggestTStop(rate, 20) <= got {
		t.Fatal("t_stop not increasing with hops per window")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SuggestTStop(0, 1)
}

// TestStalledRankAbortsWithDiagnostic injects a dead rank via the chaos
// interposer: the sweep must fail with an error naming the stalled rank
// instead of hanging, and the input box must be untouched so the caller
// can recover from a checkpoint.
func TestStalledRankAbortsWithDiagnostic(t *testing.T) {
	box := alloyBox(16, 0.03, 0.001, 41)
	fe0, cu0, vac0 := box.Count()
	chaos := mpi.NewChaos(1)
	chaos.StallRank(3)
	cfg := Config{
		PX: 2, PY: 2, PZ: 1,
		Temperature:     units.ReactorTemperature,
		TStop:           2e-8,
		Seed:            42,
		ExchangeTimeout: 100 * time.Millisecond,
		Chaos:           chaos,
	}
	start := time.Now()
	res, err := Run(box, cfg, 1e-7, eamFactory())
	if err == nil {
		t.Fatal("sweep with a dead rank did not fail")
	}
	if res != nil {
		t.Fatal("failed sweep returned a result")
	}
	if time.Since(start) > 30*time.Second {
		t.Fatalf("abort took %v — the timeout did not bound the hang", time.Since(start))
	}
	var stall *mpi.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error does not carry the stall diagnostic: %v", err)
	}
	if len(stall.Missing) != 1 || stall.Missing[0] != 3 {
		t.Fatalf("diagnostic names ranks %v, want [3]; err: %v", stall.Missing, err)
	}
	if fe1, cu1, vac1 := box.Count(); fe1 != fe0 || cu1 != cu0 || vac1 != vac0 {
		t.Fatal("aborted sweep modified the input box")
	}
}

// TestExchangeTimeoutHealthyRun: a generous timeout must not perturb a
// healthy run's trajectory.
func TestExchangeTimeoutHealthyRun(t *testing.T) {
	cfg := Config{PX: 2, PY: 1, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 9}
	plain := mustRun(t, alloyBox(12, 0.04, 0.001, 8), cfg, 1e-7, eamFactory())
	cfg.ExchangeTimeout = 30 * time.Second
	timed := mustRun(t, alloyBox(12, 0.04, 0.001, 8), cfg, 1e-7, eamFactory())
	if !plain.Box.Equal(timed.Box) {
		t.Fatal("exchange timeout changed the trajectory of a healthy run")
	}
}

// TestLargerTStopFewerExchanges: raising t_stop must reduce the number
// of synchronisation rounds for the same simulated duration while
// conserving matter.
func TestLargerTStopFewerExchanges(t *testing.T) {
	factory := eamFactory()
	run := func(tstop float64) (hops int64, sent int64) {
		box := alloyBox(16, 0.02, 0.001, 31)
		cfg := Config{PX: 2, PY: 1, PZ: 1, Temperature: units.ReactorTemperature, TStop: tstop, Seed: 32}
		res := mustRun(t, box, cfg, 1.6e-7, factory)
		for _, s := range res.Stats {
			hops += s.Hops
			sent += s.Sent
		}
		fe, cu, vac := res.Box.Count()
		if fe+cu+vac != box.NumSites() {
			t.Fatal("conservation broken")
		}
		return hops, sent
	}
	hopsStrict, _ := run(2e-8)
	hopsLoose, _ := run(8e-8)
	// Both runs simulate the same duration: hop counts agree within
	// Poisson statistics.
	mean := float64(hopsStrict+hopsLoose) / 2
	if math.Abs(float64(hopsStrict-hopsLoose)) > 6*math.Sqrt(2*mean) {
		t.Fatalf("hop counts diverge: %d vs %d", hopsStrict, hopsLoose)
	}
}

// panicAfter wraps a model so that it panics with v on its n-th
// HopEnergies call.
type panicAfter struct {
	kmc.Model
	n, calls int
	v        any
}

func (m *panicAfter) HopEnergies(vet encoding.VET) (float64, [8]float64, [8]bool) {
	if m.calls++; m.calls == m.n {
		panic(m.v)
	}
	return m.Model.HopEnergies(vet)
}

// TestFailedRankDoesNotHang: when one rank's model panics mid-run, its
// peers blocked in the sector exchange must return even with no exchange
// timeout — Run reports the failed rank's corruption error, or re-raises
// its plain panic, within seconds instead of hanging.
func TestFailedRankDoesNotHang(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    any
	}{
		{"corruption", &fault.CorruptionError{Subsystem: "test", Detail: "poisoned model"}},
		{"panic", "boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := eamFactory()
			var built atomic.Int32
			factory := func() kmc.Model {
				// Call 1 is Run's validation model; call 2 is the first
				// rank's (ranks call the factory concurrently).
				if built.Add(1) == 2 {
					return &panicAfter{Model: base(), n: 3, v: tc.v}
				}
				return base()
			}
			cfg := Config{PX: 2, PY: 1, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 3}
			type outcome struct {
				err      error
				panicked any
			}
			done := make(chan outcome, 1)
			go func() {
				var o outcome
				defer func() {
					o.panicked = recover()
					done <- o
				}()
				_, o.err = Run(alloyBox(16, 0.03, 0.001, 41), cfg, 1e-6, factory)
			}()
			var o outcome
			select {
			case o = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Run hung after a rank failed")
			}
			if _, isCorruption := tc.v.(*fault.CorruptionError); isCorruption {
				var ce *fault.CorruptionError
				if o.panicked != nil || !errors.As(o.err, &ce) || ce.Detail != "poisoned model" {
					t.Fatalf("want the rank's corruption error, got err %v, panic %v", o.err, o.panicked)
				}
				return
			}
			if msg, _ := o.panicked.(string); !strings.Contains(msg, "panicked: boom") {
				t.Fatalf("want the rank's panic re-raised, got err %v, panic %v", o.err, o.panicked)
			}
		})
	}
}
