package nnp

import (
	"fmt"
	"testing"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// refHopEnergies is the memo-free full 1+8 reference: every state's
// region energy from the per-atom naiveRegionEnergy, nine full regions
// per call.
func refHopEnergies(p *Potential, q *Potential32, tb *encoding.Tables, tab *feature.Table, vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	initial = naiveRegionEnergy(p, q, tb, tab, vet)
	for k, nn := range tb.NN1Index {
		if !vet[nn].IsAtom() {
			continue
		}
		tb.ApplyHop(vet, k)
		final[k], valid[k] = naiveRegionEnergy(p, q, tb, tab, vet), true
		tb.ApplyHop(vet, k)
	}
	return initial, final, valid
}

// hopPotential is a small trained-looking potential: non-trivial
// reference energies and feature normalisation.
func hopPotential(seed uint64) (*Potential, *encoding.Tables, *feature.Table) {
	pot, tb, tab := stdPotential([]int{64, 16, 8, 1}, seed)
	r := rng.New(seed + 1)
	pot.ERef = [lattice.NumElements]float64{-4 - r.Float64(), -3 - r.Float64()}
	pot.FeatMean = make([]float64, pot.Desc.Dim())
	pot.FeatStd = make([]float64, pot.Desc.Dim())
	for c := range pot.FeatMean {
		pot.FeatMean[c] = 0.1 * r.NormFloat64()
		pot.FeatStd[c] = 0.5 + r.Float64()
	}
	return pot, tb, tab
}

// randomVET draws every site vacant with probability vac, else Cu with
// probability cu, else Fe, with a vacancy at the origin.
func randomVET(tb *encoding.Tables, r *rng.Stream, vac, cu float64) encoding.VET {
	vet := tb.NewVET()
	for i := range vet {
		switch u := r.Float64(); {
		case u < vac:
			vet[i] = lattice.Vacancy
		case u < vac+(1-vac)*cu:
			vet[i] = lattice.Cu
		default:
			vet[i] = lattice.Fe
		}
	}
	vet[0] = lattice.Vacancy
	return vet
}

// hopResult is one 1+8 evaluation.
type hopResult struct {
	initial float64
	final   [8]float64
	valid   [8]bool
}

// refHop is refHopEnergies as a hopResult.
func refHop(p *Potential, q *Potential32, tb *encoding.Tables, tab *feature.Table, vet encoding.VET) hopResult {
	var r hopResult
	r.initial, r.final, r.valid = refHopEnergies(p, q, tb, tab, vet)
	return r
}

// checkHop compares HopEnergies on s bit for bit against want and checks
// that the VET comes back unchanged.
func checkHop(t *testing.T, name string, p *Potential, tb *encoding.Tables, tab *feature.Table, vet encoding.VET, s *Scratch, want hopResult) {
	t.Helper()
	orig := append(encoding.VET(nil), vet...)
	var got hopResult
	got.initial, got.final, got.valid = p.HopEnergies(tb, tab, vet, s)
	if got != want {
		t.Fatalf("%s: HopEnergies %+v, reference %+v", name, got, want)
	}
	for i := range vet {
		if vet[i] != orig[i] {
			t.Fatalf("%s: HopEnergies changed VET site %d", name, i)
		}
	}
}

// TestHopEnergiesDifferential bit-compares the incremental, memoised
// HopEnergies against the full 1+8 reference on generated VETs: vacancy
// fractions 0–0.3, Cu fractions 0–0.5, a planted divacancy at each of the
// 8 directions; float64 and float32 scratches, each with the production
// memo and with memos of one and four slots that evict and collide on
// nearly every lookup. The scratches persist across systems, so later
// systems run on memos filled by earlier ones.
func TestHopEnergiesDifferential(t *testing.T) {
	pot, tb, tab := hopPotential(31)
	q := pot.Quantize()
	type variant struct {
		name string
		q    *Potential32
		s    *Scratch
	}
	var variants []variant
	for _, bits := range []int{memoBits, 2, 0} {
		s, s32 := pot.NewScratch(tb), pot.NewScratch32(tb, q)
		s.memo.bits, s32.memo.bits = bits, bits
		variants = append(variants,
			variant{fmt.Sprintf("f64, 2^%d memo slots", bits), nil, s},
			variant{fmt.Sprintf("f32, 2^%d memo slots", bits), q, s32})
	}
	r := rng.New(32)
	systems := 24
	if testing.Short() {
		systems = 12
	}
	for n := 0; n < systems; n++ {
		vet := randomVET(tb, r, 0.3*r.Float64(), 0.5*r.Float64())
		if n < 8 {
			vet[tb.NN1Index[n]] = lattice.Vacancy
		}
		want := map[*Potential32]hopResult{nil: refHop(pot, nil, tb, tab, vet), q: refHop(pot, q, tb, tab, vet)}
		for _, v := range variants {
			checkHop(t, v.name, pot, tb, tab, vet, v.s, want[v.q])
		}
	}
}

// TestScratchMemoIsolation: one scratch serving two potentials in turn,
// and one potential's float64 and float32 scratches used alternately,
// must each return that potential's and precision's own energies — a
// memo shared across potentials or precisions returns the other's.
func TestScratchMemoIsolation(t *testing.T) {
	a, tb, tab := hopPotential(41)
	b, _, _ := hopPotential(43)
	qa := a.Quantize()
	r := rng.New(44)
	vets := make([]encoding.VET, 3)
	for i := range vets {
		vets[i] = randomVET(tb, r, 0.01, 0.05)
	}
	shared := a.NewScratch(tb)
	s32 := a.NewScratch32(tb, qa)
	for round := 0; round < 2; round++ {
		for _, vet := range vets {
			checkHop(t, "potential a", a, tb, tab, vet, shared, refHop(a, nil, tb, tab, vet))
			checkHop(t, "potential b", b, tb, tab, vet, shared, refHop(b, nil, tb, tab, vet))
			checkHop(t, "potential a, f32", a, tb, tab, vet, s32, refHop(a, qa, tb, tab, vet))
		}
	}
	ev := NewLatticeEvaluator(b, tb)
	for _, vet := range vets {
		var got hopResult
		got.initial, got.final, got.valid = ev.HopEnergies(vet)
		if want := refHop(b, nil, tb, ev.Tab, vet); got != want {
			t.Fatalf("evaluator for potential b: %+v, reference %+v", got, want)
		}
		if got, want := ev.RegionEnergy(vet), naiveRegionEnergy(b, nil, tb, ev.Tab, vet); got != want {
			t.Fatalf("evaluator RegionEnergy %v, reference %v", got, want)
		}
	}
}

// TestHopEnergiesRowCounts: the forward, reuse and memo counts of one
// call add up to the rows of nine full region evaluations; a repeated
// call on a memo with room for every environment of the system runs at
// most a tenth as many rows through the kernel (only keys that collide
// in a slot miss); a nil *RowStats counts nothing.
func TestHopEnergiesRowCounts(t *testing.T) {
	pot, tb, tab := hopPotential(51)
	vet := randomVET(tb, rng.New(52), 0.005, 0.05)
	want := int64(0)
	for _, states := range [][]int{{-1}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		for _, k := range states {
			if k >= 0 {
				if !vet[tb.NN1Index[k]].IsAtom() {
					continue
				}
				tb.ApplyHop(vet, k)
			}
			for _, sp := range vet[:tb.NRegion] {
				if sp.IsAtom() {
					want++
				}
			}
			if k >= 0 {
				tb.ApplyHop(vet, k)
			}
		}
	}
	rows := &RowStats{}
	s := pot.NewScratch(tb)
	s.memo.bits = 14
	s.Rows = rows
	pot.HopEnergies(tb, tab, vet, s)
	fwd, reuse, memo := rows.Counts()
	if fwd+reuse+memo != want || fwd == 0 || reuse == 0 {
		t.Fatalf("first call: forward %d + reuse %d + memo %d, want sum %d with forward and reuse > 0", fwd, reuse, memo, want)
	}
	pot.HopEnergies(tb, tab, vet, s)
	fwd2, reuse2, memo2 := rows.Counts()
	if fwd2+reuse2+memo2 != 2*want || reuse2 != 2*reuse || 10*(fwd2-fwd) > fwd {
		t.Fatalf("repeat call: forward %d→%d, reuse %d→%d, memo %d→%d", fwd, fwd2, reuse, reuse2, memo, memo2)
	}
	var none *RowStats
	none.add(1, 2, 3)
	if f, u, m := none.Counts(); f != 0 || u != 0 || m != 0 {
		t.Fatal("nil RowStats counted")
	}
}

// TestSiteMemoComparesFullKey: in a one-slot memo, where every key
// shares the slot, a lookup hits only under the exact element and tally
// stored — a change in any single count, in either key word, misses.
func TestSiteMemoComparesFullKey(t *testing.T) {
	_, tb, tab := stdPotential([]int{64, 1}, 61)
	m := siteMemo{bits: 0}
	m.reset(tb, tab.TallyLen())
	if m.words != 2 {
		t.Fatalf("6.5 Å keys take %d words, want 2", m.words)
	}
	cnt := make([]uint16, tab.TallyLen())
	for i := range cnt {
		cnt[i] = uint16(i % 5)
	}
	if _, ok := m.lookup(0, cnt, 0); ok {
		t.Fatal("empty memo hit")
	}
	m.store(0, 1.5)
	if v, ok := m.lookup(0, cnt, 0); !ok || v != 1.5 {
		t.Fatalf("stored key: %v, %v", v, ok)
	}
	if _, ok := m.lookup(1, cnt, 0); ok {
		t.Fatal("other element hit")
	}
	for i := range cnt {
		cnt[i]++
		if _, ok := m.lookup(0, cnt, 0); ok {
			t.Fatalf("tally changed at count %d hit", i)
		}
		cnt[i]--
	}
}

// TestHopEnergiesWithoutMemo: tables and a descriptor whose tallies do
// not pack into a memo key (six descriptor elements at 6.5 Å need five
// key words) run without the memo, still bit-identical to the full
// reference.
func TestHopEnergiesWithoutMemo(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	desc := feature.NewDescriptor(feature.StandardPQ(), 6, units.CutoffStandard)
	tab := feature.NewTable(desc, tb.Distances)
	pot := NewPotential(desc, []int{desc.Dim(), 8, 1}, rng.New(71))
	s := pot.NewScratch(tb)
	vet := randomVET(tb, rng.New(72), 0.05, 0.2)
	checkHop(t, "six-element descriptor", pot, tb, tab, vet, s, refHop(pot, nil, tb, tab, vet))
	if s.memo.words != 0 {
		t.Fatalf("memo keys of %d words; want the memo off", s.memo.words)
	}
}
