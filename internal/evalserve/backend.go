package evalserve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/nnp"
)

// Result is one vacancy system's complete hop-energy evaluation: the
// exact f64 outputs of the 1+8 state evaluation (Sec. 3.4). It is what
// the cache stores, what the batcher returns, and what the wire protocol
// carries.
type Result struct {
	// Initial is the relaxed region energy of the current state; Final
	// holds the region energy after each of the 8 NN1 hops, defined only
	// where Valid marks the direction open (an atom is there to swap
	// with).
	Initial float64
	Final   [8]float64
	Valid   [8]bool
}

// Backend evaluates batches of vacancy systems. Implementations must be
// safe for concurrent EvaluateBatch calls (the server runs a bounded
// worker pool) and must produce, for every VET, outputs bit-identical to
// a direct kmc.Model.HopEnergies evaluation of the same environment.
type Backend interface {
	Tables() *encoding.Tables
	EvaluateBatch(vets []encoding.VET) []Result
}

// --- Generic model-pool backend ----------------------------------------

// ModelBackend adapts any kmc.Model factory (EAM, bond-count, NNP) into a
// Backend: each EvaluateBatch borrows one model from a fixed pool and
// evaluates the systems sequentially. It brings the cache and the service
// front-end to non-NNP potentials; NNP services use the FusionBackend,
// which spreads a batch over workers.
type ModelBackend struct {
	tb   *encoding.Tables
	pool chan kmc.Model
}

// NewModelBackend builds a pool of `size` models (one per concurrent
// EvaluateBatch caller; the server sizes it to its worker count).
func NewModelBackend(factory func() kmc.Model, size int) *ModelBackend {
	if size < 1 {
		size = 1
	}
	mb := &ModelBackend{pool: make(chan kmc.Model, size)}
	for i := 0; i < size; i++ {
		m := factory()
		if mb.tb == nil {
			mb.tb = m.Tables()
		}
		mb.pool <- m
	}
	return mb
}

// Tables returns the shared encoding tables.
func (mb *ModelBackend) Tables() *encoding.Tables { return mb.tb }

// EvaluateBatch evaluates each system through one pooled model.
func (mb *ModelBackend) EvaluateBatch(vets []encoding.VET) []Result {
	m := <-mb.pool
	defer func() { mb.pool <- m }()
	out := make([]Result, len(vets))
	for i, vet := range vets {
		out[i].Initial, out[i].Final, out[i].Valid = m.HopEnergies(vet)
	}
	return out
}

// --- NNP backend ---------------------------------------------------------

// Precision selects the arithmetic of the NNP backend's inference kernel.
type Precision int

const (
	// F64 runs nnp.Potential.HopEnergies as the engine does, so results
	// are bit-identical to direct evaluation — what the trajectory
	// contract requires.
	F64 Precision = iota
	// F32 runs the same function with the float32 tile kernel
	// (nnp.Potential.NewScratch32), the arithmetic of the real
	// SW26010-pro. Deterministic, but NOT bit-identical to the f64
	// engine path: only opt in when a cached run is never compared
	// against an uncached one.
	F32
)

// FusionBackend evaluates NNP vacancy systems through
// nnp.Potential.HopEnergies — the exact function the engine runs — with
// the systems of a batch spread over a goroutine pool, each worker owning
// a private nnp.Scratch. Systems are independent, so the results do not
// depend on the worker count or the schedule. The batch width buys
// parallelism, not a wider GEMM: the inference kernel costs the same per
// system at any width.
//
// Concurrency: EvaluateBatch is safe for concurrent callers (the server
// runs a bounded worker pool); each call builds private working state.
// SetWorkers must be called before the backend is shared.
type FusionBackend struct {
	pot     *nnp.Potential
	tb      *encoding.Tables
	tab     *feature.Table
	q       *nnp.Potential32 // quantised heads, F32 only
	workers int              // per-batch worker count; 0 = GOMAXPROCS
}

// NewFusionBackend binds a trained potential to tables in the given
// precision. A batch spreads over GOMAXPROCS goroutines by default; tune
// with SetWorkers.
func NewFusionBackend(pot *nnp.Potential, tb *encoding.Tables, prec Precision) *FusionBackend {
	fb := &FusionBackend{pot: pot, tb: tb, tab: feature.NewTable(pot.Desc, tb.Distances)}
	if prec == F32 {
		fb.q = pot.Quantize()
	}
	return fb
}

// SetWorkers fixes the goroutine count a batch spreads over
// (non-positive restores the GOMAXPROCS default). Worker count never
// changes results — only wall time. Call before the backend is shared
// across server workers.
func (fb *FusionBackend) SetWorkers(n int) { fb.workers = n }

// Tables returns the encoding tables.
func (fb *FusionBackend) Tables() *encoding.Tables { return fb.tb }

// EvaluateBatch runs the 1+8 evaluation of every system.
func (fb *FusionBackend) EvaluateBatch(vets []encoding.VET) []Result {
	for _, vet := range vets {
		if len(vet) != fb.tb.NAll {
			panic(fmt.Sprintf("evalserve: VET length %d, want %d", len(vet), fb.tb.NAll))
		}
	}
	out := make([]Result, len(vets))
	workers := fb.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(vets))
	var next atomic.Int64
	work := func() {
		var s *nnp.Scratch
		if fb.q != nil {
			s = fb.pot.NewScratch32(fb.tb, fb.q)
		} else {
			s = fb.pot.NewScratch(fb.tb)
		}
		// HopEnergies mutates the VET in place (and reverts it); the
		// caller's buffer may be shared with a blocked engine goroutine,
		// so each system runs on a private copy.
		vet := fb.tb.NewVET()
		for i := int(next.Add(1)) - 1; i < len(vets); i = int(next.Add(1)) - 1 {
			copy(vet, vets[i])
			r := &out[i]
			r.Initial, r.Final, r.Valid = fb.pot.HopEnergies(fb.tb, fb.tab, vet, s)
		}
	}
	if workers <= 1 {
		work()
		return out
	}
	// A worker's panic (e.g. the non-finite-energy tripwire's
	// *fault.CorruptionError) is re-raised on the caller's goroutine,
	// where the server recovers it.
	var wg sync.WaitGroup
	var once sync.Once
	var failure any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { failure = p })
					next.Store(int64(len(vets))) // stop the other workers
				}
			}()
			work()
		}()
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
	return out
}
