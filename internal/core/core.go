// Package core assembles the TensorKMC simulation from its substrates:
// the bcc lattice, the triple-encoding tables, a potential (neural
// network or EAM), the vacancy-cached serial KMC engine, and the
// sector-synchronised parallel engine. It is the layer the command-line
// tools and examples drive.
package core

import (
	"fmt"
	"os"
	"time"

	"tensorkmc/internal/bondcount"
	"tensorkmc/internal/cluster"
	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/evalserve"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/mpi"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/sublattice"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/telemetry/trace"
	"tensorkmc/internal/traj"
	"tensorkmc/internal/units"
)

// PotentialKind selects the energy model.
type PotentialKind int

const (
	// EAM uses the analytic embedded-atom potential (fast; also the
	// synthetic-DFT oracle).
	EAM PotentialKind = iota
	// NNP uses a neural network potential (a *nnp.Potential must be
	// supplied, e.g. loaded from a file trained by cmd/tkmc-train).
	NNP
	// BondCount uses the classic tabulated pair-interaction model — the
	// pre-NNP AKMC parameterisation the paper's introduction contrasts
	// against (fast, but with simplified microkinetics).
	BondCount
)

// Config describes a simulation. Zero values take the paper's defaults
// where meaningful.
type Config struct {
	// Cells is the box size in bcc unit cells per axis.
	Cells [3]int
	// LatticeConstant in Å (default 2.87, bcc Fe).
	LatticeConstant float64
	// CuFraction and VacancyFraction are atomic fractions (the paper's
	// runs use 1.34 % Cu and 8×10⁻⁶ vacancies).
	CuFraction      float64
	VacancyFraction float64
	// Temperature in kelvin (default 573, the RPV thermal-aging
	// temperature).
	Temperature float64
	// Cutoff radius in Å (default 6.5).
	Cutoff float64
	// Seed drives the initial alloy and the trajectory.
	Seed uint64

	// Potential selects the energy model; Net must be set for NNP.
	Potential PotentialKind
	Net       *nnp.Potential

	// Ranks is the parallel decomposition (each axis must divide
	// Cells); all-zero or all-one means the serial engine.
	Ranks [3]int
	// TStop is the parallel sector quantum in seconds (default 2e-8).
	TStop float64

	// Engine options (ablations).
	Options kmc.Options

	// InitialBox, if non-nil, is used (cloned) instead of a random
	// alloy fill — the checkpoint/restart path. Cells, LatticeConstant,
	// CuFraction and VacancyFraction are then taken from the box.
	InitialBox *lattice.Box

	// Restart, if non-nil, resumes the simulation from a full-state
	// checkpoint: box, clock, hop count, segment counter and (serial)
	// RNG state. It takes precedence over InitialBox.
	Restart *Checkpoint

	// CheckpointPath, if non-empty, makes Run write a crash-safe
	// TKMCBOX2 checkpoint (atomic rename, last-good .bak rotation)
	// every CheckpointEvery simulated seconds and at the end of each
	// Run call. CheckpointEvery <= 0 means only at the end of Run.
	CheckpointPath  string
	CheckpointEvery float64

	// EvalCache, when positive, routes every energy evaluation through a
	// shared evalserve.Server: a content-addressed cache of EvalCache
	// entries over a batching backend (the big-fusion path for NNP, a
	// model pool otherwise), shared by every rank of a parallel run. The
	// default f64 service is bit-identical to direct evaluation, so
	// trajectories are unchanged — only faster on recurring environments.
	EvalCache int
	// EvalShards, EvalBatch and EvalWorkers tune the service (zero takes
	// the evalserve defaults).
	EvalShards  int
	EvalBatch   int
	EvalWorkers int
	// EvalF32 runs fused NNP batches in f32 — the real accelerator's
	// arithmetic, deterministic but NOT bit-identical to the f64 engine
	// path. Ignored for non-NNP potentials.
	EvalF32 bool
	// EvalSpeculate, when positive with EvalCache enabled, has the
	// engines predict each refreshed system's EvalSpeculate most
	// probable hops and hand the post-hop environments to the
	// evaluation service as low-priority prefetch. Speculation is pure
	// cache warm-up: mispredictions cost only wasted evaluation, and
	// trajectories are bit-identical with it on or off.
	EvalSpeculate int

	// EvalFleet, when non-empty, routes every energy evaluation through
	// a remote tkmc-serve fleet: a consistent-hash ring over the
	// content-addressed environment space shards the key space across
	// the listed nodes, with per-request deadlines, bounded retry,
	// failover to ring replicas, and (by default) graceful degradation
	// to a local evaluator when the whole fleet is unreachable. Because
	// every node and the local path return bit-identical f64 energies,
	// none of that machinery can change a trajectory. EvalCache composes:
	// when both are set, the cache sits client-side in front of the
	// fleet.
	EvalFleet []string
	// EvalRetry is the extra attempts per node before failing over
	// (0 = fleet default, negative = none). EvalTimeout bounds each wire
	// interaction (0 = fleet default). EvalFallback enables the local
	// degradation path; input decks default it ON for fleet runs.
	EvalRetry    int
	EvalTimeout  time.Duration
	EvalFallback bool

	// ExchangeTimeout bounds each parallel sector exchange; on expiry
	// the sweep aborts with a diagnostic naming the stalled ranks
	// instead of hanging. Zero means wait forever.
	ExchangeTimeout time.Duration
	// Chaos, if non-nil, is a fault interposer for the parallel
	// message fabric (testing only).
	Chaos *mpi.Chaos

	// Traj, if non-nil, records the run into an event-sourced TKMCTRJ1
	// trajectory log: every serial hop and clip (or parallel segment)
	// becomes an append-only record, with periodic full-state snapshots
	// for replay seeding. The recorder is owned by the caller — it
	// survives supervisor rebuilds, which roll it back to the restored
	// state's committed mark — and it only observes executed events, so
	// checkpoints are byte-identical with recording on or off. Its mode
	// must match the run (serial vs parallel).
	Traj *traj.Recorder

	// Telemetry, if non-nil, instruments the whole stack: the engines
	// bump tkmc_step_total and decompose the hot path into phase spans,
	// the evaluation service exports its cache/batch counters, the
	// message fabric counts per-rank traffic, and run/segment/checkpoint
	// /analyze timings land in the span tree. Telemetry only reads the
	// wall clock and bumps atomic counters — it never touches RNG
	// streams or simulation state — so trajectories and checkpoints are
	// bit-identical with it on or off.
	Telemetry *telemetry.Set

	// Trace enables distributed trace propagation (it needs Telemetry
	// for the flight-recorder journal): the run mints a trace context —
	// or adopts TraceParent — every KMC segment records a span, and eval
	// requests through the fleet carry the context to serving nodes,
	// where server-side spans nest under the client's. Like the rest of
	// telemetry, tracing only reads the wall clock and appends journal
	// events, so checkpoints stay byte-identical with it on or off.
	Trace bool
	// TraceParent, when set to a 16-hex-char trace ID (e.g. the TraceID
	// minted into a control-plane job record), roots this run's spans in
	// that existing trace instead of minting a fresh one — the hook that
	// joins a job's segments to its controller-side lifecycle spans.
	TraceParent string

	// SLO, when any objective is set, watches the evaluation path (the
	// latency and failure of every HopEnergies resolution) against the
	// configured objectives and captures a black-box bundle — CPU/heap
	// profiles, the flight-recorder window, metrics, offending trace
	// IDs, fleet ring state — on a sustained burn.
	SLO telemetry.SLOConfig
}

func (c *Config) applyDefaults() {
	if c.LatticeConstant == 0 {
		c.LatticeConstant = units.LatticeConstantFe
	}
	if c.Temperature == 0 {
		c.Temperature = units.ReactorTemperature
	}
	if c.Cutoff == 0 {
		c.Cutoff = units.CutoffStandard
	}
	if c.TStop == 0 {
		c.TStop = sublattice.DefaultTStop
	}
}

// parallel reports whether the configuration requests the sublattice
// engine.
func (c *Config) parallel() bool {
	r := c.Ranks
	return r[0]*r[1]*r[2] > 1
}

// Simulation is a configured TensorKMC run.
type Simulation struct {
	Cfg    Config
	Tables *encoding.Tables

	box     *lattice.Box
	engine  *kmc.Engine // serial path
	model   kmc.Model
	mkMod   func() kmc.Model       // per-rank factory for the parallel path
	evalSrv *evalserve.Server      // shared evaluation service (nil unless EvalCache > 0)
	fleet   *evalserve.FleetClient // remote evaluation fleet (nil unless EvalFleet set)
	time    float64                // parallel-path clock
	hops    int64                  // parallel-path hop counter
	segment uint64                 // parallel-path run counter (fresh seeds per segment)

	// Telemetry phase handles, nil when telemetry is off. Pre-resolved
	// in New so every metric family is visible in /metrics (at zero)
	// before the first hop runs.
	runPh, segPh, ckptPh, analyzePh *telemetry.Phase

	journal   *telemetry.Journal    // span sink, nil when telemetry is off
	traceRoot trace.Context         // run-level trace context, zero when tracing is off
	segParent trace.Context         // what segment spans nest under (the active run span)
	slo       *telemetry.SLOMonitor // eval-path SLO watchdog, nil unless objectives set
}

// New builds a simulation: allocates and fills the box, constructs the
// encoding tables and the potential evaluator, and (for serial runs)
// the engine.
func New(cfg Config) (*Simulation, error) {
	if cfg.Restart != nil {
		if cfg.Restart.Box == nil {
			return nil, fmt.Errorf("core: restart checkpoint has no box")
		}
		cfg.InitialBox = cfg.Restart.Box
	}
	if cfg.InitialBox != nil {
		cfg.Cells = [3]int{cfg.InitialBox.Nx, cfg.InitialBox.Ny, cfg.InitialBox.Nz}
		cfg.LatticeConstant = cfg.InitialBox.A
	}
	cfg.applyDefaults()
	for i, n := range cfg.Cells {
		if n <= 0 {
			return nil, fmt.Errorf("core: Cells[%d] = %d", i, n)
		}
	}
	if cfg.CuFraction < 0 || cfg.VacancyFraction < 0 || cfg.CuFraction+cfg.VacancyFraction >= 1 {
		return nil, fmt.Errorf("core: invalid composition Cu=%v vac=%v", cfg.CuFraction, cfg.VacancyFraction)
	}
	if cfg.Potential == NNP && cfg.Net == nil {
		return nil, fmt.Errorf("core: NNP potential requires Net")
	}
	if cfg.Potential == NNP && cfg.Net.Desc.Rcut > cfg.Cutoff+1e-9 {
		return nil, fmt.Errorf("core: potential cutoff %v exceeds table cutoff %v", cfg.Net.Desc.Rcut, cfg.Cutoff)
	}

	s := &Simulation{Cfg: cfg}
	if set := cfg.Telemetry; set != nil {
		s.runPh = set.Trace().Phase(telemetry.PhaseRun)
		s.segPh = s.runPh.Child(telemetry.PhaseSegment)
		s.ckptPh = s.runPh.Child(telemetry.PhaseCheckpoint)
		s.analyzePh = s.runPh.Child(telemetry.PhaseAnalyze)
		// Register the step counter eagerly so the family is scrapable
		// (at zero) before the first hop — parallel ranks only create
		// their handles once a sweep starts.
		set.Reg().Counter(telemetry.MetricStepTotal,
			"Executed KMC hops (serial engine steps plus parallel rank hops).")
		cfg.Options.Telemetry = set
		s.Cfg.Options.Telemetry = set
		s.journal = set.Events()
	}
	if cfg.Trace && cfg.Telemetry != nil {
		if cfg.TraceParent != "" {
			id, err := trace.ParseID(cfg.TraceParent)
			if err != nil {
				return nil, fmt.Errorf("core: TraceParent: %w", err)
			}
			s.traceRoot = trace.Context{Trace: id}
		} else {
			s.traceRoot = trace.New()
		}
		s.segParent = s.traceRoot
	}
	s.Tables = encoding.New(cfg.LatticeConstant, cfg.Cutoff)
	if cfg.InitialBox != nil {
		s.box = cfg.InitialBox.Clone()
	} else {
		s.box = lattice.NewBox(cfg.Cells[0], cfg.Cells[1], cfg.Cells[2], cfg.LatticeConstant)
		lattice.FillRandomAlloy(s.box, cfg.CuFraction, cfg.VacancyFraction, rng.New(cfg.Seed))
	}

	switch cfg.Potential {
	case EAM:
		pot := eam.New(eam.Default())
		s.mkMod = func() kmc.Model { return eam.NewFastRegionEvaluator(pot, s.Tables) }
	case NNP:
		s.mkMod = func() kmc.Model { return nnp.NewLatticeEvaluator(cfg.Net, s.Tables) }
	case BondCount:
		params := bondcount.FeCu()
		s.mkMod = func() kmc.Model { return bondcount.NewEvaluator(params, s.Tables) }
	default:
		return nil, fmt.Errorf("core: unknown potential kind %d", cfg.Potential)
	}
	if len(cfg.EvalFleet) > 0 {
		fopts := evalserve.FleetOptions{
			Timeout:   cfg.EvalTimeout,
			Retries:   cfg.EvalRetry,
			Seed:      cfg.Seed,
			Telemetry: cfg.Telemetry,
		}
		if cfg.EvalFallback {
			// The degradation path reuses the locally constructed
			// evaluator — bit-identical to the fleet's backends, so a
			// fallback answer is indistinguishable from a served one.
			fopts.Fallback = s.mkMod()
		}
		fleet, err := evalserve.DialFleet(cfg.EvalFleet, cfg.LatticeConstant, cfg.Cutoff, fopts)
		if err != nil {
			return nil, fmt.Errorf("core: dialing evaluation fleet: %w", err)
		}
		s.fleet = fleet
		// The fleet client is concurrency-safe; every rank shares it so
		// identical environments route to the same node's cache.
		s.mkMod = func() kmc.Model { return fleet }
	}
	if cfg.EvalCache > 0 {
		opts := evalserve.Options{
			Capacity:  cfg.EvalCache,
			Shards:    cfg.EvalShards,
			MaxBatch:  cfg.EvalBatch,
			Workers:   cfg.EvalWorkers,
			Telemetry: cfg.Telemetry,
		}
		opts = opts.WithDefaults()
		var be evalserve.Backend
		if cfg.Potential == NNP && s.fleet == nil {
			prec := evalserve.F64
			if cfg.EvalF32 {
				prec = evalserve.F32
			}
			be = evalserve.NewFusionBackend(cfg.Net, s.Tables, prec)
		} else {
			// Non-NNP potentials — and any fleet run, where the remote
			// nodes do the heavy lifting and the local cache just
			// deduplicates wire round trips — go through the model pool.
			be = evalserve.NewModelBackend(s.mkMod, opts.Workers)
		}
		s.evalSrv = evalserve.New(be, opts)
		// Every rank (and the serial engine) shares the one service, so
		// identical environments on different ranks hit the same entry.
		s.mkMod = func() kmc.Model { return s.evalSrv }
		if cfg.EvalSpeculate > 0 {
			cfg.Options.Speculate = cfg.EvalSpeculate
			cfg.Options.Prefetcher = s.evalSrv
			s.Cfg.Options = cfg.Options
		}
	}
	if mon := telemetry.NewSLOMonitor(cfg.SLO, cfg.Telemetry); mon != nil {
		s.slo = mon
		if fleet := s.fleet; fleet != nil {
			mon.SetExtra("ring.txt", func(f *os.File) error {
				st := fleet.Stats()
				if _, err := fmt.Fprintf(f, "retries=%d failovers=%d fallbacks=%d reconnects=%d\n",
					st.Retries, st.Failovers, st.Fallbacks, st.Reconnects); err != nil {
					return err
				}
				for _, addr := range fleet.Nodes() {
					if _, err := fmt.Fprintf(f, "node %s up=%v\n", addr, st.NodeUp[addr]); err != nil {
						return err
					}
				}
				return nil
			})
		}
		// The monitor observes the outermost model — what the engines
		// actually wait on — so cache hits, fleet legs and fallbacks all
		// count toward the objective.
		inner := s.mkMod
		tid := ""
		if s.traceRoot.Valid() {
			tid = s.traceRoot.TraceID()
		}
		s.mkMod = func() kmc.Model { return &sloModel{inner: inner(), mon: mon, tid: tid} }
		mon.Start()
	}
	s.model = s.mkMod()

	if !cfg.parallel() {
		s.engine = kmc.NewEngine(s.box, s.model, cfg.Temperature, rng.New(cfg.Seed).Split(1), cfg.Options)
	}
	if cfg.Restart != nil {
		if err := s.restore(cfg.Restart); err != nil {
			return nil, err
		}
	}
	if err := s.attachTraj(); err != nil {
		return nil, err
	}
	return s, nil
}

// attachTraj binds the configured trajectory recorder to this
// simulation's starting state. A fresh log begins here (and seeds
// itself with an initial snapshot); a resumed log — including every
// supervisor restore, which rebuilds the simulation through New — rolls
// back to the committed mark matching the restored state, failing
// closed if none exists.
func (s *Simulation) attachTraj() error {
	r := s.Cfg.Traj
	if r == nil {
		return nil
	}
	wantMode := traj.ModeSerial
	if s.Cfg.parallel() {
		wantMode = traj.ModeParallel
	}
	if r.Mode() != wantMode {
		return fmt.Errorf("core: trajectory log is %v but the run is %v", r.Mode(), wantMode)
	}
	if r.Begun() {
		if err := r.Rollback(s.Hops(), s.Time()); err != nil {
			return fmt.Errorf("core: resuming trajectory log: %w", err)
		}
		return nil
	}
	if err := r.Begin(s.Hops(), s.Time()); err != nil {
		return fmt.Errorf("core: beginning trajectory log: %w", err)
	}
	if err := s.trajSnapshot(r); err != nil {
		return err
	}
	// Make the begin + base snapshot durable immediately so every later
	// rollback target — including a rollback to the very start — lies
	// strictly after this frame.
	if err := r.Commit(s.Hops(), s.Time()); err != nil {
		return fmt.Errorf("core: committing trajectory log: %w", err)
	}
	return nil
}

// trajSnapshot writes a full-state snapshot of the log via the
// checkpoint machinery (atomic rename + .bak rotation).
func (s *Simulation) trajSnapshot(r *traj.Recorder) error {
	return r.Snapshot(s.Hops(), s.Time(), func(path string) error {
		return s.Checkpoint().SaveFile(path)
	})
}

// trajCommit makes the trajectory log durable up to the current state;
// Run calls it before every checkpoint write so a durable checkpoint
// always has a log mark to roll back to.
func (s *Simulation) trajCommit() error {
	r := s.Cfg.Traj
	if r == nil {
		return nil
	}
	if err := r.Commit(s.Hops(), s.Time()); err != nil {
		return fmt.Errorf("core: committing trajectory log: %w", err)
	}
	return nil
}

// Box returns the current lattice (the evolved state after runs).
func (s *Simulation) Box() *lattice.Box { return s.box }

// EvalServer exposes the shared evaluation service, nil when EvalCache
// is off — the tkmc-serve TCP front-end attaches to it.
func (s *Simulation) EvalServer() *evalserve.Server { return s.evalSrv }

// EvalStats snapshots the evaluation-service counters; ok reports
// whether the service is enabled.
func (s *Simulation) EvalStats() (st evalserve.Stats, ok bool) {
	if s.evalSrv == nil {
		return evalserve.Stats{}, false
	}
	return s.evalSrv.Stats(), true
}

// Close releases background resources — the evaluation service's
// worker pool, the fleet client, the SLO watchdog. It is idempotent
// and safe without a service; a closed simulation must not Run again.
func (s *Simulation) Close() {
	s.slo.Close()
	if s.evalSrv != nil {
		s.evalSrv.Close()
	}
	if s.fleet != nil {
		s.fleet.Close()
	}
}

// sloModel wraps the outermost evaluation model with SLO observation:
// every HopEnergies resolution is timed and reported to the monitor,
// with a typed-panic unwind (corruption, transport exhaustion)
// counting as a failed request. Pure observation — results pass
// through untouched, so trajectories are unchanged.
type sloModel struct {
	inner kmc.Model
	mon   *telemetry.SLOMonitor
	tid   string // run trace ID for offender attribution, "" untraced
}

func (m *sloModel) Tables() *encoding.Tables { return m.inner.Tables() }

func (m *sloModel) HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	start := time.Now()
	ok := false
	defer func() { m.mon.Observe(time.Since(start), !ok, m.tid) }()
	initial, final, valid = m.inner.HopEnergies(vet)
	ok = true
	return initial, final, valid
}

// TraceID returns the canonical 16-hex-char ID of the run's distributed
// trace — what `tkmc-analyze trace` takes — or "" when tracing is off.
func (s *Simulation) TraceID() string {
	if !s.traceRoot.Valid() {
		return ""
	}
	return s.traceRoot.TraceID()
}

// SLO exposes the run's SLO monitor, nil unless objectives are
// configured. Tests drive it deterministically through Tick.
func (s *Simulation) SLO() *telemetry.SLOMonitor { return s.slo }

// Fleet exposes the remote evaluation fleet client, nil when EvalFleet
// is unset — callers use it for membership changes and health stats.
func (s *Simulation) Fleet() *evalserve.FleetClient { return s.fleet }

// Model returns the configured energy model, exposed so the physics
// invariant auditor can recompute propensities from scratch.
func (s *Simulation) Model() kmc.Model { return s.model }

// Time returns the simulated time in seconds.
func (s *Simulation) Time() float64 {
	if s.engine != nil {
		return s.engine.Time()
	}
	return s.time
}

// Hops returns the executed hop count.
func (s *Simulation) Hops() int64 {
	if s.engine != nil {
		return s.engine.Steps()
	}
	return s.hops
}

// EngineStats exposes the serial engine's cache counters (zero for
// parallel runs).
func (s *Simulation) EngineStats() kmc.Stats {
	if s.engine != nil {
		return s.engine.Stats()
	}
	return kmc.Stats{}
}

// Report summarises a run segment.
type Report struct {
	Duration float64
	Hops     int64
	// Analysis is the Cu cluster state at the end of the segment.
	Analysis cluster.Analysis
	// Recovery is the supervisor's fault-handling account when the run
	// was driven by internal/supervise; nil on unsupervised runs.
	Recovery *Recovery
}

// Recovery is the typed account of what a supervisor did to keep a run
// alive: the failures it saw, the segments it replayed, and the time it
// lost doing so. It is surfaced through Report so callers (and the CLI's
// exit status) can distinguish a clean run from a recovered one.
type Recovery struct {
	// Failures counts failed segment attempts (including audit failures).
	Failures int
	// Replays counts segments re-run after a restore.
	Replays int
	// ShadowRestores counts restores from the in-memory shadow
	// checkpoint; DiskRestores counts fallbacks to the on-disk
	// TKMCBOX2/.bak last-good state.
	ShadowRestores int
	DiskRestores   int
	// Audits counts invariant-auditor passes (periodic, post-recovery
	// and on-demand).
	Audits int
	// BackoffTotal is the wall-clock time spent backing off between
	// retries; ReplayedTime is the simulated seconds that had to be
	// re-run after restores.
	BackoffTotal time.Duration
	ReplayedTime float64
	// FailureLog records the failures seen, oldest first (bounded).
	FailureLog []string
}

// Recovered reports whether any segment had to be replayed.
func (r *Recovery) Recovered() bool { return r != nil && r.Replays > 0 }

// Summary renders a one-line human-readable account for logs and the
// CLI exit banner; it returns "" for a nil or uneventful record.
func (r *Recovery) Summary() string {
	if r == nil || (r.Failures == 0 && r.Audits == 0) {
		return ""
	}
	return fmt.Sprintf("recovery: %d failures, %d replays (%d shadow + %d disk restores), %d audits, %.3gs simulated time replayed, %v backoff",
		r.Failures, r.Replays, r.ShadowRestores, r.DiskRestores, r.Audits, r.ReplayedTime, r.BackoffTotal)
}

// Run advances the simulation by duration seconds (serial or parallel
// per the configuration) and returns a report. Observer, if non-nil, is
// invoked after every executed hop on serial runs (it is not available
// on parallel runs, where hops happen concurrently).
func (s *Simulation) Run(duration float64, observer func(ev kmc.Event)) (Report, error) {
	if duration < 0 {
		return Report{}, fmt.Errorf("core: negative duration")
	}
	runSW := s.runPh.Start()
	defer runSW.Stop()
	if rsp := trace.Start(s.journal, s.traceRoot, "run"); rsp != nil {
		prev := s.segParent
		s.segParent = rsp.Context()
		defer func() {
			s.segParent = prev
			rsp.EndMsg("duration=%.6g", duration)
		}()
	}
	if s.Cfg.CheckpointPath != "" {
		// Slice the run into checkpoint intervals, persisting crash-safe
		// state after each. The slicing itself is part of the trajectory
		// (a serial Step consumes draws even for clipped events), so it
		// is derived deterministically from the configuration: the same
		// deck resumes the same trajectory.
		remaining := duration
		for remaining > 0 {
			chunk := remaining
			if s.Cfg.CheckpointEvery > 0 && s.Cfg.CheckpointEvery < chunk {
				chunk = s.Cfg.CheckpointEvery
			}
			if err := s.runChunk(chunk, observer); err != nil {
				return Report{}, err
			}
			if err := s.trajCommit(); err != nil {
				return Report{}, err
			}
			ckptSW := s.ckptPh.Start()
			err := s.SaveCheckpoint(s.Cfg.CheckpointPath)
			ckptSW.Stop()
			if err != nil {
				return Report{}, fmt.Errorf("core: writing checkpoint: %w", err)
			}
			remaining -= chunk
			// Swallow float dust from repeated subtraction so the last
			// interval does not spawn a zero-length chunk (and a
			// duplicate checkpoint) for a few ulps of residue.
			if remaining <= duration*1e-12 {
				remaining = 0
			}
		}
	} else {
		if err := s.runChunk(duration, observer); err != nil {
			return Report{}, err
		}
		if err := s.trajCommit(); err != nil {
			return Report{}, err
		}
	}
	return Report{
		Duration: duration,
		Hops:     s.Hops(),
		Analysis: s.Analyze(),
	}, nil
}

// runChunk advances the simulation by one uninterrupted interval.
func (s *Simulation) runChunk(duration float64, observer func(ev kmc.Event)) (err error) {
	segSW := s.segPh.Start()
	defer segSW.Stop()
	// One span per segment; fleet requests issued inside it mint their
	// per-request spans under this context (SetTrace), which is how a
	// client-side eval span ends up nested in the right segment. Defers
	// run LIFO, so the panic-recovery conversion below has already
	// turned a corruption/transport panic into err by the time the span
	// closes — a failed segment records its error.
	sp := trace.Start(s.journal, s.segParent, "segment")
	defer func() {
		if err != nil {
			sp.EndMsg("error=%v", err)
		} else {
			sp.EndMsg("t=%.6g hops=%d", s.Time(), s.Hops())
		}
	}()
	if sp != nil && s.fleet != nil {
		s.fleet.SetTrace(sp.Context())
		defer s.fleet.SetTrace(trace.Context{})
	}
	// The rate kernel's corruption tripwires (NaN/Inf propensities or
	// energies) fire as typed panics; surface them as errors so callers
	// — in particular the supervisor — see a non-retryable failure.
	// Remote-evaluation transport failures panic typed too and become
	// retryable errors: the supervisor replays the segment from the
	// shadow checkpoint while the fleet client rides out the outage. The
	// parallel path converts both per rank inside sublattice.Run.
	defer func() {
		if p := recover(); p != nil {
			switch e := p.(type) {
			case *fault.CorruptionError:
				err = fmt.Errorf("core: aborted: %w", e)
			case *fault.TransportError:
				err = fmt.Errorf("core: aborted: %w", e)
			default:
				panic(p)
			}
		}
	}()
	rec := s.Cfg.Traj
	if s.engine != nil {
		limit := s.engine.Time() + duration
		for s.engine.Time() < limit {
			ev, ok := s.engine.Step(limit)
			if !ok {
				// A clipped draw pinned the clock to the limit and consumed
				// RNG draws; a zero-rate stall consumed none and left the
				// clock alone. Only the former is a trajectory event.
				if rec != nil && s.engine.Time() >= limit {
					rec.Clip(limit)
				}
				break
			}
			if rec != nil {
				rec.Hop(ev.Slot, ev.Direction, ev.DeltaT)
				if rec.SnapshotDue() {
					if err := s.trajSnapshot(rec); err != nil {
						return err
					}
				}
			}
			if observer != nil {
				observer(ev)
			}
		}
	} else {
		if observer != nil {
			return fmt.Errorf("core: per-event observers are unavailable on parallel runs")
		}
		// Commit the segment counter only after a successful sweep so a
		// failed (e.g. chaos-aborted) segment can be retried or resumed
		// from checkpoint with the same seed.
		seg := s.segment + 1
		cfg := sublattice.Config{
			PX: s.Cfg.Ranks[0], PY: s.Cfg.Ranks[1], PZ: s.Cfg.Ranks[2],
			Temperature:     s.Cfg.Temperature,
			TStop:           s.Cfg.TStop,
			Seed:            s.Cfg.Seed + seg,
			ExchangeTimeout: s.Cfg.ExchangeTimeout,
			Chaos:           s.Cfg.Chaos,
			Telemetry:       s.Cfg.Telemetry,
			Speculate:       s.Cfg.Options.Speculate,
			Prefetcher:      s.Cfg.Options.Prefetcher,
		}
		res, err := sublattice.Run(s.box, cfg, duration, s.mkMod)
		if err != nil {
			return fmt.Errorf("core: segment %d: %w", seg, err)
		}
		s.segment = seg
		s.box = res.Box
		s.time += res.Time
		for _, st := range res.Stats {
			s.hops += st.Hops
		}
		if rec != nil {
			rec.Segment(seg, duration, s.time, s.hops)
			if rec.SnapshotDue() {
				if err := s.trajSnapshot(rec); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Analyze returns the current Cu cluster statistics (1NN+2NN adjacency).
func (s *Simulation) Analyze() cluster.Analysis {
	sw := s.analyzePh.Start()
	defer sw.Stop()
	return cluster.Analyze(s.box, 2)
}

// IsolatedCu returns the Fig. 8 observable.
func (s *Simulation) IsolatedCu() int { return cluster.IsolatedCu(s.box) }
