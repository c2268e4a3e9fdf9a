package evalserve

import (
	"sync"
	"testing"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// sampleVETs collects distinct vacancy environments from a dilute Fe–Cu
// box — the production workload shape.
func sampleVETs(t testing.TB, tb *encoding.Tables, n int, seed uint64) []encoding.VET {
	t.Helper()
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.05, 0.0, rng.New(seed))
	r := rng.New(seed + 1)
	out := make([]encoding.VET, 0, n)
	for len(out) < n {
		c := lattice.Vec{X: 2 * int(r.Uint64()%14), Y: 2 * int(r.Uint64()%14), Z: 2 * int(r.Uint64()%14)}
		old := box.Get(c)
		box.Set(c, lattice.Vacancy)
		vet := tb.NewVET()
		tb.FillVET(vet, c, box.Get)
		box.Set(c, old)
		out = append(out, vet)
	}
	return out
}

func smallPotential(seed uint64) (*nnp.Potential, *encoding.Tables) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffShort)
	desc := feature.Standard(units.CutoffShort)
	pot := nnp.NewPotential(desc, []int{desc.Dim(), 16, 8, 1}, rng.New(seed))
	return pot, tb
}

// TestFusionBackendBitIdentical: the fused wide-matrix evaluation must be
// bit-identical to one-system-at-a-time nnp evaluation, for every batch
// width — the foundation of the cached/uncached trajectory contract.
func TestFusionBackendBitIdentical(t *testing.T) {
	pot, tb := smallPotential(1)
	direct := nnp.NewLatticeEvaluator(pot, tb)
	fb := NewFusionBackend(pot, tb, F64)
	vets := sampleVETs(t, tb, 17, 2)

	for _, width := range []int{1, 3, 17} {
		for lo := 0; lo < len(vets); lo += width {
			hi := lo + width
			if hi > len(vets) {
				hi = len(vets)
			}
			got := fb.EvaluateBatch(vets[lo:hi])
			for i, vet := range vets[lo:hi] {
				wi, wf, wv := direct.HopEnergies(vet)
				if got[i].Initial != wi || got[i].Final != wf || got[i].Valid != wv {
					t.Fatalf("width %d system %d: fused (%v, %v) != direct (%v, %v)",
						width, lo+i, got[i].Initial, got[i].Final, wi, wf)
				}
			}
		}
	}
}

// TestFusionBackendF32Deterministic: the f32 path is not bit-identical to
// f64, but it must be deterministic and close.
func TestFusionBackendF32Deterministic(t *testing.T) {
	pot, tb := smallPotential(3)
	fb := NewFusionBackend(pot, tb, F32)
	vets := sampleVETs(t, tb, 4, 4)
	a := fb.EvaluateBatch(vets)
	b := fb.EvaluateBatch(vets)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("f32 evaluation is not deterministic at system %d", i)
		}
	}
	f64 := NewFusionBackend(pot, tb, F64).EvaluateBatch(vets)
	for i := range a {
		diff := a[i].Initial - f64[i].Initial
		if diff < 0 {
			diff = -diff
		}
		scale := f64[i].Initial
		if scale < 0 {
			scale = -scale
		}
		if diff > 1e-4*(1+scale) {
			t.Fatalf("f32 drifted too far from f64: %v vs %v", a[i].Initial, f64[i].Initial)
		}
	}
}

// TestServerMatchesDirectModel: the full cache-then-batch pipeline returns
// bit-identical energies to the wrapped model, for both backends.
func TestServerMatchesDirectModel(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffShort)
	params := eam.Default()
	params.RCut = units.CutoffShort
	params.RIn = 4.6
	pot := eam.New(params)
	factory := func() kmc.Model { return eam.NewRegionEvaluator(pot, tb) }

	srv := New(NewModelBackend(factory, 2), Options{Capacity: 64})
	defer srv.Close()
	direct := factory()
	vets := sampleVETs(t, tb, 12, 5)

	// Two passes: the second must be all hits, still bit-identical.
	for pass := 0; pass < 2; pass++ {
		for i, vet := range vets {
			gi, gf, gv := srv.HopEnergies(vet)
			wi, wf, wv := direct.HopEnergies(vet)
			if gi != wi || gf != wf || gv != wv {
				t.Fatalf("pass %d system %d: served (%v, %v) != direct (%v, %v)", pass, i, gi, gf, wi, wf)
			}
		}
	}
	st := srv.Stats()
	if st.Hits == 0 {
		t.Fatalf("second pass produced no cache hits: %+v", st)
	}
	if st.Misses == 0 || st.Batches == 0 {
		t.Fatalf("first pass produced no evaluations: %+v", st)
	}
}

// TestServerConcurrentClients hammers one server from many goroutines
// sharing a small set of environments: every result must equal the direct
// evaluation, duplicates must coalesce, and the counters must add up.
func TestServerConcurrentClients(t *testing.T) {
	pot, tb := smallPotential(6)
	srv := New(NewFusionBackend(pot, tb, F64), Options{Capacity: 256, MaxBatch: 8, Workers: 3})
	defer srv.Close()
	direct := nnp.NewLatticeEvaluator(pot, tb)
	vets := sampleVETs(t, tb, 6, 7)
	want := make([]Result, len(vets))
	for i, vet := range vets {
		want[i].Initial, want[i].Final, want[i].Valid = direct.HopEnergies(vet)
	}

	const clients = 8
	const rounds = 40
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(vets)
				gi, gf, gv := srv.HopEnergies(vets[i])
				if gi != want[i].Initial || gf != want[i].Final || gv != want[i].Valid {
					errs <- "served energies diverged from direct evaluation"
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := srv.Stats()
	if got := st.Hits + st.Misses; got != clients*rounds {
		t.Fatalf("lookup count %d, want %d", got, clients*rounds)
	}
	// Only len(vets) distinct environments exist, so at most that many
	// evaluations were necessary beyond coalesced duplicates.
	if st.BatchedSystems > int64(len(vets)) {
		t.Fatalf("%d distinct evaluations for %d distinct environments", st.BatchedSystems, len(vets))
	}
}

// TestServerBackpressureBounded: with a tiny queue, a flood of concurrent
// misses must block at the bound instead of queueing unboundedly.
func TestServerBackpressureBounded(t *testing.T) {
	pot, tb := smallPotential(8)
	srv := New(NewFusionBackend(pot, tb, F64), Options{
		Capacity: 1 << 12, MaxBatch: 4, Workers: 1, QueueDepth: 4,
	})
	defer srv.Close()
	vets := sampleVETs(t, tb, 48, 9)

	var wg sync.WaitGroup
	for c := 0; c < 12; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(vets); i += 12 {
				srv.HopEnergies(vets[i])
			}
		}(c)
	}
	wg.Wait()
	st := srv.Stats()
	if st.QueueHighWater > 4 {
		t.Fatalf("queue high-water %d exceeds the configured bound 4", st.QueueHighWater)
	}
	if st.MaxBatchWidth > 4 {
		t.Fatalf("batch width %d exceeds MaxBatch 4", st.MaxBatchWidth)
	}
}

// TestServerGracefulDrain: Close must complete queued work, and later
// submissions must fail cleanly rather than hang.
func TestServerGracefulDrain(t *testing.T) {
	pot, tb := smallPotential(10)
	srv := New(NewFusionBackend(pot, tb, F64), Options{Workers: 1, QueueDepth: 64})
	vets := sampleVETs(t, tb, 8, 11)

	var wg sync.WaitGroup
	results := make([]Result, len(vets))
	errCount := 0
	var mu sync.Mutex
	for i := range vets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := srv.Evaluate(vets[i])
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errCount++
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	srv.Close()
	srv.Close() // idempotent

	if errCount != 0 {
		t.Fatalf("%d pre-close submissions failed", errCount)
	}
	if _, err := srv.Evaluate(vets[0]); err == nil {
		t.Fatal("Evaluate after Close did not fail")
	}
}

// TestCacheEvictionAndCollision exercises the LRU bound and the
// compare-on-hit veto directly.
func TestCacheEvictionAndCollision(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffShort)
	c := NewCache(4, 1)
	vets := sampleVETs(t, tb, 6, 12)

	for i, vet := range vets {
		c.Put(tb.Fingerprint(vet), tb.EncodeEnv(vet), Result{Initial: float64(i)})
	}
	stats := c.Stats()[0]
	if stats.Entries > 4 {
		t.Fatalf("cache holds %d entries, cap 4", stats.Entries)
	}
	if stats.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", stats.Evictions)
	}
	// Oldest two must be gone, newest resident.
	if _, ok := c.Get(tb.Fingerprint(vets[0]), vets[0]); ok {
		t.Fatal("evicted entry still resident")
	}
	if res, ok := c.Get(tb.Fingerprint(vets[5]), vets[5]); !ok || res.Initial != 5 {
		t.Fatal("recent entry lost or wrong")
	}

	// Forced collision: file an entry under vets[5]'s hash with a
	// different environment — the full compare must veto the hit and
	// count the collision.
	other := vets[4]
	if _, ok := c.Get(tb.Fingerprint(vets[5]), other); ok {
		t.Fatal("collision accepted: compare-on-hit failed")
	}
	if got := c.Stats()[0].Collisions; got == 0 {
		t.Fatal("collision not counted")
	}
}

// TestModelBackendMatchesNNP: the generic pool backend serves NNP too
// (used when fusion batching is disabled), bit-identically.
func TestModelBackendMatchesNNP(t *testing.T) {
	pot, tb := smallPotential(13)
	mb := NewModelBackend(func() kmc.Model { return nnp.NewLatticeEvaluator(pot, tb) }, 2)
	direct := nnp.NewLatticeEvaluator(pot, tb)
	vets := sampleVETs(t, tb, 5, 14)
	got := mb.EvaluateBatch(vets)
	for i, vet := range vets {
		wi, wf, wv := direct.HopEnergies(vet)
		if got[i].Initial != wi || got[i].Final != wf || got[i].Valid != wv {
			t.Fatalf("system %d: pooled (%v) != direct (%v)", i, got[i].Initial, wi)
		}
	}
}

// TestFusionBackendDivacancy: with a second vacancy at 1NN direction k,
// hop k is closed and every other direction keeps its own slot. The
// backend must match the direct evaluator bit for bit in Initial, Final
// and Valid, for every k and any worker count.
func TestFusionBackendDivacancy(t *testing.T) {
	pot, tb := smallPotential(5)
	direct := nnp.NewLatticeEvaluator(pot, tb)
	var vets []encoding.VET
	for k, vet := range sampleVETs(t, tb, 7, 6) {
		vet[tb.NN1Index[k]] = lattice.Vacancy
		vets = append(vets, vet)
	}
	for _, workers := range []int{1, 3} {
		fb := NewFusionBackend(pot, tb, F64)
		fb.SetWorkers(workers)
		got := fb.EvaluateBatch(vets)
		for k, vet := range vets {
			wi, wf, wv := direct.HopEnergies(vet)
			if wv[k] {
				t.Fatalf("direction %d holds a vacancy but is valid", k)
			}
			if got[k].Initial != wi || got[k].Final != wf || got[k].Valid != wv {
				t.Fatalf("workers %d, vacancy at direction %d: backend (%v, %v, %v) != direct (%v, %v, %v)",
					workers, k, got[k].Initial, got[k].Final, got[k].Valid, wi, wf, wv)
			}
		}
	}
}
