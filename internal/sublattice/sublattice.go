// Package sublattice implements the parallel AKMC method of Sec. 2.2: a
// spatial domain decomposition over message-passing ranks combined with
// the Shim–Amar synchronous sublattice algorithm. Each rank's domain is
// split into 2×2×2 sectors; all ranks process the same sector octant
// simultaneously for a quantum t_stop, so concurrently active vacancies
// on different ranks are separated by at least half a domain and
// boundary hops can never conflict. Ghost regions are synchronised
// between sectors (the paper's "sites in the boundary region must be
// updated in advance").
//
// The method is semirigorous (Shim & Amar 2005): within one sector
// window, boundary information is frozen, an approximation controlled by
// t_stop. The paper's scalability runs use the strict
// t_stop = 2×10⁻⁸ s; the same default is used here.
package sublattice

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/mpi"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/telemetry"
)

// DefaultTStop is the paper's strict synchronisation interval (seconds).
const DefaultTStop = 2e-8

// Config describes a parallel run.
type Config struct {
	// PX, PY, PZ are ranks per axis; each must divide the box's cell
	// count on that axis.
	PX, PY, PZ int
	// Temperature in kelvin.
	Temperature float64
	// TStop is the sector synchronisation quantum in seconds
	// (DefaultTStop if zero).
	TStop float64
	// Seed drives all per-rank streams.
	Seed uint64
	// ExchangeTimeout bounds each sector-synchronisation collective.
	// Zero blocks forever (the pre-fault-tolerance behaviour); with a
	// timeout set, a rank that fails to reach the exchange makes the
	// whole sweep abort with an error naming the stalled ranks, so the
	// caller can recover from the last-good checkpoint.
	ExchangeTimeout time.Duration
	// Chaos, if non-nil, is installed on the run's message fabric to
	// inject faults under test control.
	Chaos *mpi.Chaos
	// Telemetry, if non-nil, instruments the sweep: rank hops bump
	// tkmc_step_total, sector-window KMC and sector exchanges get
	// run/segment/{sector,exchange} spans (summed over ranks, so their
	// totals are rank-seconds), and the message fabric exports per-rank
	// send/recv/timeout counters. Purely observational: the trajectory
	// is bit-identical with telemetry on or off.
	Telemetry *telemetry.Set
	// Speculate, when positive with a Prefetcher set, has each rank
	// predict the Speculate most probable hops of every refreshed
	// system and hand their post-hop environments to the Prefetcher as
	// cache warm-up. Ranks only speculate hops whose target stays in
	// their own interior (the surrounding environment is then fully
	// resident, ghosts included). Advisory and side-effect-free: the
	// trajectory is bit-identical with speculation on or off.
	Speculate  int
	Prefetcher kmc.Prefetcher
}

// Ranks returns the world size.
func (c Config) Ranks() int { return c.PX * c.PY * c.PZ }

// SiteChange is one occupancy update broadcast at sector synchronisation.
type SiteChange struct {
	Site lattice.Vec // canonical global coordinates
	New  lattice.Species
}

// RankStats reports one rank's work counters.
type RankStats struct {
	Hops         int64 // executed hops
	Discarded    int64 // events rejected by the t_stop window
	Sent         int64 // site changes broadcast
	Refills      int64 // VET rebuilds
	Speculations int64 // post-hop environments handed to the Prefetcher
}

// Result is the outcome of a parallel run.
type Result struct {
	// Box is the reconstructed global lattice after the run.
	Box *lattice.Box
	// Time is the simulated duration.
	Time float64
	// Stats is indexed by rank.
	Stats []RankStats
}

// Run executes a parallel AKMC simulation of `duration` seconds over the
// given global box (which is not modified; the evolved lattice is
// returned in the Result). factory must return a fresh kmc.Model per
// call — one per rank.
//
// With Config.ExchangeTimeout set, a rank that stalls (dies, hangs, or
// is held by the Chaos interposer) makes Run return an error naming the
// stalled ranks instead of hanging; the global box is then unmodified
// and the caller can resume from its last-good checkpoint. A rank that
// fails — a corruption or transport error, or any other panic — breaks
// the world whatever the timeout, so its peers return at once: Run then
// returns the first failed rank's error, or re-raises its panic.
func Run(box *lattice.Box, cfg Config, duration float64, factory func() kmc.Model) (*Result, error) {
	if cfg.TStop == 0 {
		cfg.TStop = DefaultTStop
	}
	validate(box, cfg, factory())
	nRanks := cfg.Ranks()
	results := make([]*rankState, nRanks)
	errs := make([]error, nRanks)
	// firstErr is the rank whose error was recorded first. A failing rank
	// records its error before it breaks the world, so peers that fail
	// because of it (a broken exchange) record theirs later.
	var mu sync.Mutex
	firstErr := -1
	fail := func(c *mpi.Comm, err error) {
		mu.Lock()
		errs[c.Rank()] = err
		if firstErr < 0 {
			firstErr = c.Rank()
		}
		mu.Unlock()
		c.Abort(err)
	}
	w := mpi.NewWorld(nRanks)
	if cfg.Chaos != nil {
		w.SetChaos(cfg.Chaos)
	}
	if cfg.Telemetry != nil {
		w.SetTelemetry(cfg.Telemetry.Reg(), cfg.Telemetry.Events())
	}
	mpi.RunWorld(w, func(c *mpi.Comm) {
		// A corruption tripwire (NaN propensity, non-finite energy) fires
		// as a typed panic deep in the rate kernel; convert it into this
		// rank's error so the sweep aborts with the diagnostic instead of
		// crashing the process. Any other panic propagates through
		// RunWorld. Either way the world breaks, so peers blocked on
		// this rank's exchange return at once.
		defer func() {
			if p := recover(); p != nil {
				switch e := p.(type) {
				case *fault.CorruptionError:
					fail(c, e)
				case *fault.TransportError:
					// Remote evaluation failed past its retry budget:
					// retryable — the supervisor replays the segment.
					fail(c, e)
				default:
					panic(p)
				}
			}
		}()
		r := newRank(c, box, cfg, factory())
		if err := r.run(duration); err != nil {
			fail(c, err)
			return
		}
		results[c.Rank()] = r
	})
	if firstErr >= 0 {
		// A corruption outranks the stalls it can cause first in peers
		// whose exchange timeout fired before it surfaced, so the
		// supervisor classifies the failure as non-retryable.
		rank := firstErr
		var ce *fault.CorruptionError
		if !errors.As(errs[rank], &ce) {
			for r, err := range errs {
				if errors.As(err, &ce) {
					rank = r
					break
				}
			}
		}
		return nil, fmt.Errorf("sublattice: sweep aborted on rank %d: %w", rank, errs[rank])
	}

	out := &Result{Time: duration, Stats: make([]RankStats, nRanks)}
	out.Box = lattice.NewBox(box.Nx, box.Ny, box.Nz, box.A)
	for i, r := range results {
		out.Stats[i] = r.stats
		r.dom.ForEachLocal(func(v lattice.Vec, idx int) {
			out.Box.Set(v, r.dom.Types()[idx])
		})
	}
	return out, nil
}

func validate(box *lattice.Box, cfg Config, model kmc.Model) {
	tb := model.Tables()
	if cfg.PX <= 0 || cfg.PY <= 0 || cfg.PZ <= 0 {
		panic(fmt.Sprintf("sublattice: invalid rank grid %dx%dx%d", cfg.PX, cfg.PY, cfg.PZ))
	}
	if box.Nx%cfg.PX != 0 || box.Ny%cfg.PY != 0 || box.Nz%cfg.PZ != 0 {
		panic("sublattice: rank grid does not divide the box")
	}
	g := tb.MaxExtent
	for _, a := range []struct{ n, p int }{{box.Nx, cfg.PX}, {box.Ny, cfg.PY}, {box.Nz, cfg.PZ}} {
		local := 2 * a.n / a.p
		if local < 2 {
			panic("sublattice: domain thinner than one cell")
		}
		if g > 2*a.n {
			panic("sublattice: ghost width exceeds the periodic box")
		}
	}
	if cfg.TStop <= 0 {
		panic("sublattice: non-positive t_stop")
	}
}

// vsys is one locally owned vacancy system.
type vsys struct {
	center lattice.Vec // raw == canonical (local region is canonical)
	vet    encoding.VET
	rates  [8]float64
	total  float64
	filled bool
	dirty  bool
}

type rankState struct {
	comm  *mpi.Comm
	cfg   Config
	tb    *encoding.Tables
	model kmc.Model
	rnd   *rng.Stream

	global *lattice.Box // geometry only (canonical indexing/wrapping)
	dom    *lattice.Domain

	systems []*vsys
	slotOf  map[int]int // canonical global index → slot

	changes []SiteChange
	stats   RankStats
	specVet encoding.VET // speculation scratch, lazily allocated

	// Telemetry handles (nil-safe no-ops when uninstrumented). All
	// ranks share the same nodes; the atomics make concurrent
	// accumulation safe.
	hopCtr     *telemetry.Counter
	sectorPh   *telemetry.Phase
	exchangePh *telemetry.Phase
}

func newRank(c *mpi.Comm, box *lattice.Box, cfg Config, model kmc.Model) *rankState {
	tb := model.Tables()
	rank := c.Rank()
	px := rank % cfg.PX
	py := (rank / cfg.PX) % cfg.PY
	pz := rank / (cfg.PX * cfg.PY)
	sx, sy, sz := 2*box.Nx/cfg.PX, 2*box.Ny/cfg.PY, 2*box.Nz/cfg.PZ
	origin := lattice.Vec{X: px * sx, Y: py * sy, Z: pz * sz}
	dom := lattice.NewDomain(origin, lattice.Vec{X: sx, Y: sy, Z: sz}, tb.MaxExtent, box.A)

	r := &rankState{
		comm:   c,
		cfg:    cfg,
		tb:     tb,
		model:  model,
		rnd:    rng.New(cfg.Seed).Split(uint64(rank)),
		global: lattice.NewBox(box.Nx, box.Ny, box.Nz, box.A), // geometry helper
		dom:    dom,
		slotOf: make(map[int]int),
	}
	if set := cfg.Telemetry; set != nil {
		seg := set.Trace().PhaseAt(telemetry.PhaseRun, telemetry.PhaseSegment)
		r.hopCtr = set.Reg().Counter(telemetry.MetricStepTotal,
			"Executed KMC hops (serial engine steps plus parallel rank hops).")
		r.sectorPh = seg.Child(telemetry.PhaseSector)
		r.exchangePh = seg.Child(telemetry.PhaseExchange)
	}
	// Scatter: local + ghost contents from the global box.
	dom.ForEachLocal(func(v lattice.Vec, idx int) {
		dom.Types()[idx] = box.Get(v)
		if box.Get(v) == lattice.Vacancy {
			r.addSystem(v)
		}
	})
	dom.ForEachGhost(func(v lattice.Vec, idx int) {
		dom.Types()[idx] = box.Get(v)
	})
	return r
}

func (r *rankState) addSystem(center lattice.Vec) {
	r.systems = append(r.systems, &vsys{center: center, vet: r.tb.NewVET(), dirty: true})
	r.slotOf[r.global.Index(center)] = len(r.systems) - 1
}

func (r *rankState) removeSystem(slot int) {
	last := len(r.systems) - 1
	delete(r.slotOf, r.global.Index(r.systems[slot].center))
	if slot != last {
		r.systems[slot] = r.systems[last]
		r.slotOf[r.global.Index(r.systems[slot].center)] = slot
	}
	r.systems = r.systems[:last]
}

// setAll updates every periodic image of the canonical site within the
// extended region (an undivided axis can hold two images of one site).
func (r *rankState) setAll(canon lattice.Vec, s lattice.Species) {
	period := lattice.Vec{X: 2 * r.global.Nx, Y: 2 * r.global.Ny, Z: 2 * r.global.Nz}
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				v := lattice.Vec{X: canon.X + dx*period.X, Y: canon.Y + dy*period.Y, Z: canon.Z + dz*period.Z}
				if r.dom.Contains(v) {
					r.dom.Set(v, s)
				}
			}
		}
	}
}

// patchSystems updates cached VETs that cover the changed canonical site,
// mirroring the serial engine's vacancy-cache invalidation. skipSlot
// excludes the hopper (refilled instead).
func (r *rankState) patchSystems(canon lattice.Vec, s lattice.Species, skipSlot int) {
	for _, c := range r.tb.CET {
		centre := r.global.Wrap(canon.Add(c))
		slot, ok := r.slotOf[r.global.Index(centre)]
		if !ok || slot == skipSlot {
			continue
		}
		sys := r.systems[slot]
		if !sys.filled {
			sys.dirty = true
			continue
		}
		idx, found := r.tb.IndexOf(lattice.Vec{X: -c.X, Y: -c.Y, Z: -c.Z})
		if !found {
			panic("sublattice: CET not symmetric")
		}
		sys.vet[idx] = s
		sys.dirty = true
	}
}

// sectorOf returns the 2×2×2 sector octant (0–7) of a local-region site.
func (r *rankState) sectorOf(v lattice.Vec) int {
	rel := v.Sub(r.dom.Origin)
	s := 0
	if 2*rel.X >= r.dom.Size.X {
		s |= 1
	}
	if 2*rel.Y >= r.dom.Size.Y {
		s |= 2
	}
	if 2*rel.Z >= r.dom.Size.Z {
		s |= 4
	}
	return s
}

func (r *rankState) refresh(slot int) {
	sys := r.systems[slot]
	if !sys.filled {
		r.tb.FillVET(sys.vet, sys.center, r.dom.Get)
		sys.filled = true
		r.stats.Refills++
	}
	initial, final, valid := r.model.HopEnergies(sys.vet)
	sys.rates, sys.total = kmc.Rates(sys.vet, r.tb, initial, final, valid, r.cfg.Temperature)
	sys.dirty = false
	if r.cfg.Speculate > 0 && r.cfg.Prefetcher != nil {
		r.speculate(slot)
	}
}

// speculate hands the post-hop environments of the system's most
// probable hops to the Prefetcher. Only hops whose target stays inside
// the rank's interior are speculated: the environment around such a
// target is fully resident (local plus ghost region), so it can be
// filled without touching any other rank. Pure read-side work — no
// randomness drawn, no state changed — so the trajectory is
// bit-identical with speculation on or off.
func (r *rankState) speculate(slot int) {
	sys := r.systems[slot]
	if sys.total <= 0 {
		return
	}
	// Strictly-greater insertion sort: ties keep ascending direction
	// order, making the prediction sequence deterministic.
	var order [8]int
	for i := range order {
		order[i] = i
	}
	for i := 1; i < 8; i++ {
		for j := i; j > 0 && sys.rates[order[j]] > sys.rates[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	top := r.cfg.Speculate
	if top > 8 {
		top = 8
	}
	for i := 0; i < top; i++ {
		k := order[i]
		if sys.rates[k] <= 0 {
			break
		}
		from := sys.center
		toRaw := from.Add(lattice.NN1[k])
		if !r.dom.IsLocal(toRaw) {
			continue
		}
		mover := sys.vet[r.tb.NN1Index[k]]
		idxFrom := r.global.Index(from)
		idxTo := r.global.Index(toRaw)
		if r.specVet == nil {
			r.specVet = r.tb.NewVET()
		}
		// Overlay on canonical indices so every periodic image of the
		// two changed sites (an undivided axis holds several) reads its
		// post-hop occupancy.
		get := func(v lattice.Vec) lattice.Species {
			switch r.global.Index(v) {
			case idxFrom:
				return mover
			case idxTo:
				return lattice.Vacancy
			}
			return r.dom.Get(v)
		}
		r.tb.FillVET(r.specVet, toRaw, get)
		r.cfg.Prefetcher.Prefetch(r.specVet)
		r.stats.Speculations++
	}
}

// runSector evolves the active sector for the window (seconds).
func (r *rankState) runSector(sector int, window float64) {
	var clock float64
	for {
		// Active systems: local vacancies currently in this sector.
		var active []int
		var total float64
		for slot, sys := range r.systems {
			if r.sectorOf(sys.center) != sector {
				continue
			}
			if sys.dirty {
				r.refresh(slot)
			}
			if sys.total > 0 {
				active = append(active, slot)
				total += sys.total
			}
		}
		if total <= 0 {
			return
		}
		dt := r.rnd.ExpDeltaT(total)
		clock += dt
		if clock > window {
			r.stats.Discarded++
			return
		}
		// Select vacancy then direction.
		target := r.rnd.Float64() * total
		slot := active[len(active)-1]
		var acc float64
		for _, s := range active {
			acc += r.systems[s].total
			if target < acc {
				slot = s
				break
			}
		}
		sys := r.systems[slot]
		k := 7
		dirTarget := r.rnd.Float64() * sys.total
		acc = 0
		for i := 0; i < 8; i++ {
			acc += sys.rates[i]
			if dirTarget < acc {
				k = i
				break
			}
		}
		r.executeHop(slot, k)
	}
}

func (r *rankState) executeHop(slot int, k int) {
	sys := r.systems[slot]
	from := sys.center
	toRaw := from.Add(lattice.NN1[k])
	toCanon := r.global.Wrap(toRaw)
	mover := r.dom.Get(toRaw)
	if !mover.IsAtom() {
		panic("sublattice: hop into non-atom")
	}
	r.setAll(from, mover)
	r.setAll(toCanon, lattice.Vacancy)
	r.changes = append(r.changes,
		SiteChange{Site: from, New: mover},
		SiteChange{Site: toCanon, New: lattice.Vacancy})
	r.stats.Sent += 2
	r.stats.Hops++
	r.hopCtr.Inc()

	if r.dom.IsLocal(toCanon) {
		// Stays ours: move the system.
		delete(r.slotOf, r.global.Index(from))
		r.slotOf[r.global.Index(toCanon)] = slot
		sys.center = toCanon
		sys.filled = false
		sys.dirty = true
		r.patchSystems(from, mover, slot)
		r.patchSystems(toCanon, lattice.Vacancy, slot)
	} else {
		// Emigrated into a neighbour's territory: drop local ownership;
		// the neighbour adopts it when the change arrives.
		r.patchSystems(from, mover, slot)
		r.patchSystems(toCanon, lattice.Vacancy, slot)
		r.removeSystem(slot)
	}
}

// exchange broadcasts accumulated changes and applies everyone else's.
// It returns an error instead of blocking forever when the world breaks
// (a failed peer) or, with an ExchangeTimeout configured, when a peer
// stalls past it (naming the stalled ranks).
func (r *rankState) exchange() error {
	payload := append([]SiteChange(nil), r.changes...)
	all, err := r.comm.AllGatherTimeout(payload, r.cfg.ExchangeTimeout)
	if err != nil {
		return err
	}
	r.changes = r.changes[:0]
	for from, payload := range all {
		if from == r.comm.Rank() {
			continue
		}
		for _, ch := range payload.([]SiteChange) {
			r.apply(ch)
		}
	}
	return nil
}

func (r *rankState) apply(ch SiteChange) {
	canon := ch.Site
	// Does any image fall in our extended region?
	inRegion := false
	period := lattice.Vec{X: 2 * r.global.Nx, Y: 2 * r.global.Ny, Z: 2 * r.global.Nz}
	for dx := -1; dx <= 1 && !inRegion; dx++ {
		for dy := -1; dy <= 1 && !inRegion; dy++ {
			for dz := -1; dz <= 1 && !inRegion; dz++ {
				v := lattice.Vec{X: canon.X + dx*period.X, Y: canon.Y + dy*period.Y, Z: canon.Z + dz*period.Z}
				if r.dom.Contains(v) {
					inRegion = true
				}
			}
		}
	}
	if !inRegion {
		return
	}
	if r.dom.IsLocal(canon) {
		old := r.dom.Get(canon)
		if old == ch.New {
			return
		}
		if old == lattice.Vacancy && ch.New != lattice.Vacancy {
			// A vacancy we owned was consumed remotely — cannot happen
			// under the sector discipline for owned interiors, but a
			// just-adopted vacancy may be re-announced; drop ownership.
			if slot, ok := r.slotOf[r.global.Index(canon)]; ok {
				r.removeSystem(slot)
			}
		}
		r.setAll(canon, ch.New)
		if ch.New == lattice.Vacancy {
			r.addSystem(canon)
		}
	} else {
		r.setAll(canon, ch.New)
	}
	r.patchSystems(canon, ch.New, -1)
}

// run advances the simulation by duration seconds. It aborts cleanly
// (diagnostics, no hang) if a sector exchange times out.
func (r *rankState) run(duration float64) error {
	tstop := r.cfg.TStop
	remaining := duration
	for remaining > 1e-18*duration && remaining > 0 {
		window := tstop
		if remaining < window {
			window = remaining
		}
		for sector := 0; sector < 8; sector++ {
			sw := r.sectorPh.Start()
			r.runSector(sector, window)
			sw.Stop()
			sw = r.exchangePh.Start()
			err := r.exchange()
			sw.Stop()
			if err != nil {
				return fmt.Errorf("sector %d exchange: %w", sector, err)
			}
		}
		remaining -= window
	}
	return nil
}

// SuggestTStop returns a synchronisation quantum targeting the given
// number of expected hops per vacancy per sector window. The paper's
// strict default (2×10⁻⁸ s at 573 K) corresponds to roughly two hops per
// vacancy per window; Sec. 4.4 notes that practical runs can raise
// t_stop "to some larger values to significantly reduce communication" —
// at the cost of a larger semirigorous approximation error. hopRate is
// the per-vacancy total propensity (≈8·Γ_hop in dilute systems).
func SuggestTStop(hopRate float64, hopsPerWindow float64) float64 {
	if hopRate <= 0 || hopsPerWindow <= 0 {
		panic("sublattice: non-positive rate or target")
	}
	return hopsPerWindow / hopRate
}
