package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tensorkmc/internal/cluster"
	"tensorkmc/internal/core"
	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/evalserve"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/sublattice"
	"tensorkmc/internal/units"
)

// Layers of the hop ledger, in increasing nesting depth. The run phase
// is the root: its self time is the unattributed remainder (loop glue
// between the calls the wrappers see).
const (
	layerRun        = iota
	layerKMC        // kmc.Engine.Step outside the model
	layerSublattice // sublattice.Run while no rank is in the model: rank engines, exchange
	layerCore       // checkpoint writes and the end-of-run cluster analysis
	layerModel      // kmc.Model.HopEnergies: eam, nnp or evalserve, by workload
	layerFusion     // evalserve.Backend.EvaluateBatch
	numLayers
)

// span is one timed call into a layer. Spans of one hop share hop (the
// engine step number; the segment number on parallel runs).
type span struct {
	layer      int
	parent     int32
	hop        int64
	start, end time.Duration // since the tracer's origin
	miss       bool          // a model call that caused a backend batch
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(layer int, parent int32, hop int64) int32 {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: layer, parent: parent, hop: hop, start: now})
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

func (t *tracer) hopOf(id int32) int64 {
	if id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].hop
}

// tracedModel times every HopEnergies call of the wrapped model and
// samples the environments it saw for the feature / forward replay.
type tracedModel struct {
	kmc.Model
	s *stack
}

func (m *tracedModel) HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	s := m.s
	id := s.t.begin(layerModel, s.cur, s.curHop)
	s.open.Store(id)
	var batches int64
	if s.be != nil {
		batches = s.be.batches.Load()
	}
	initial, final, valid = m.Model.HopEnergies(vet)
	s.t.end(id)
	if s.be != nil && s.be.batches.Load() != batches {
		s.t.mu.Lock()
		s.t.spans[id].miss = true
		s.t.mu.Unlock()
	}
	s.sample.take(vet)
	return initial, final, valid
}

// tracedBackend times the evaluation service's fused batches. Its
// spans nest under the model call waiting on them (serial runs have
// one in flight at a time).
type tracedBackend struct {
	evalserve.Backend
	s       *stack
	batches atomic.Int64
	systems atomic.Int64
}

func (b *tracedBackend) EvaluateBatch(vets []encoding.VET) []evalserve.Result {
	b.batches.Add(1)
	b.systems.Add(int64(len(vets)))
	t := b.s.t
	p := b.s.open.Load()
	id := t.begin(layerFusion, p, t.hopOf(p))
	out := b.Backend.EvaluateBatch(vets)
	t.end(id)
	return out
}

// sampler is a fixed-seed reservoir of environments (nil = off).
type sampler struct {
	mu   sync.Mutex
	seen int
	vets []encoding.VET
	rnd  *rand.Rand
}

const replaySystems = 24

func newSampler() *sampler { return &sampler{rnd: rand.New(rand.NewPCG(1, 2))} }

func (s *sampler) take(vet encoding.VET) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++
	if len(s.vets) < replaySystems {
		s.vets = append(s.vets, append(encoding.VET(nil), vet...))
		return
	}
	if j := s.rnd.IntN(s.seen); j < replaySystems {
		copy(s.vets[j], vet)
	}
}

// settings are what core derives from a workload's configuration and
// the stack assembles with by hand. TestStackMatchesCore holds the two
// together, so a change to core's assembly fails the benchmark's tests.
type settings struct {
	engine          kmc.Options // serial engine and parallel ranks
	tstop           float64     // parallel sector quantum
	exchangeTimeout time.Duration
	eval            evalserve.Options // nnp-cached's service
	prec            evalserve.Precision
}

func settingsFor(w workload) settings {
	st := settings{tstop: sublattice.DefaultTStop, prec: evalserve.F64}
	if w.cached {
		st.eval = evalserve.Options{Capacity: cacheEntries}.WithDefaults()
	}
	return st
}

// stack is a workload assembled from the layers' public constructors,
// the way core.New assembles it, with optional timing wrappers.
type stack struct {
	w      workload
	seed   uint64
	set    settings
	t      *tracer // nil: no wrappers (the reference run)
	net    *nnp.Potential
	tb     *encoding.Tables
	box    *lattice.Box
	mk     func() kmc.Model
	srv    *evalserve.Server
	be     *tracedBackend
	sample *sampler

	// The parent of the next model span, written by the run loop; the
	// model span in flight; the core spans that wrote a checkpoint.
	cur       int32
	curHop    int64
	open      atomic.Int32
	ckptSpans []int32

	// Progress, for reporting where a failed run stopped.
	engine  *kmc.Engine
	parHops int64
}

// hops is the number of hops executed so far.
func (s *stack) hops() int64 {
	if s.engine != nil {
		return s.engine.Steps()
	}
	return s.parHops
}

func newStack(w workload, seed uint64, net *nnp.Potential, t *tracer) *stack {
	s := &stack{w: w, seed: seed, t: t, net: net, set: settingsFor(w)}
	s.tb = encoding.New(units.LatticeConstantFe, cutoff)
	s.box = lattice.NewBox(w.cells, w.cells, w.cells, units.LatticeConstantFe)
	lattice.FillRandomAlloy(s.box, cuFraction, w.vacancy, rng.New(seed))
	if w.nnp {
		s.mk = func() kmc.Model { return nnp.NewLatticeEvaluator(net, s.tb) }
		if t != nil {
			s.sample = newSampler()
		}
	} else {
		pot := eam.New(eam.Default())
		s.mk = func() kmc.Model { return eam.NewFastRegionEvaluator(pot, s.tb) }
	}
	if w.cached {
		var be evalserve.Backend = evalserve.NewFusionBackend(net, s.tb, s.set.prec)
		if t != nil {
			s.be = &tracedBackend{Backend: be, s: s}
			be = s.be
		}
		s.srv = evalserve.New(be, s.set.eval)
		s.mk = func() kmc.Model { return s.srv }
	}
	if t != nil {
		inner := s.mk
		s.mk = func() kmc.Model { return &tracedModel{Model: inner(), s: s} }
	}
	return s
}

func (s *stack) close() {
	if s.srv != nil {
		s.srv.Close()
	}
}

func (s *stack) begin(layer int, parent int32, hop int64) int32 {
	if s.t == nil {
		return -1
	}
	return s.t.begin(layer, parent, hop)
}

func (s *stack) end(id int32) {
	if s.t != nil {
		s.t.end(id)
	}
}

// outcome is what one stack run leaves behind.
type outcome struct {
	ckpt   *core.Checkpoint
	runS   float64 // the run phase, as Simulation.Run times it
	hops   int64
	engine kmc.Stats
	ranks  []sublattice.RankStats
	root   int32
}

// run advances the stack through the workload's deck.
func (s *stack) run(workDir string) (out outcome, err error) {
	start := time.Now()
	out.root = s.begin(layerRun, -1, 0)
	if s.w.parallel() {
		err = s.runParallel(workDir, &out)
	} else {
		s.runSerial(&out)
	}
	if err != nil {
		return out, err
	}
	id := s.begin(layerCore, out.root, out.hops)
	cluster.Analyze(out.ckpt.Box, 2)
	s.end(id)
	s.end(out.root)
	out.runS = time.Since(start).Seconds()
	return out, nil
}

// runSerial mirrors core's serial path: one engine, one chunk.
func (s *stack) runSerial(out *outcome) {
	e := kmc.NewEngine(s.box, s.mk(), temperature, rng.New(s.seed).Split(1), s.set.engine)
	s.engine = e
	limit := s.w.duration
	for e.Time() < limit {
		s.curHop = e.Steps() + 1
		s.cur = s.begin(layerKMC, out.root, s.curHop)
		_, ok := e.Step(limit)
		s.end(s.cur)
		if !ok {
			break
		}
	}
	out.hops = e.Steps()
	out.engine = e.Stats()
	out.ckpt = &core.Checkpoint{
		Box: s.box.Clone(), Time: e.Time(), Hops: e.Steps(),
		HasRNG: true, RNG: e.RNG().State(), Vacancies: e.VacancyCenters(),
	}
}

// runParallel mirrors core's checkpointed parallel path: one
// sublattice.Run per segment, an fsynced checkpoint after each.
func (s *stack) runParallel(workDir string, out *outcome) error {
	box := s.box
	var simTime float64
	var seg uint64
	path := filepath.Join(workDir, "ledger.tkmc")
	remaining := s.w.duration
	for remaining > 0 {
		chunk := remaining
		if s.w.segment > 0 && s.w.segment < chunk {
			chunk = s.w.segment
		}
		seg++
		s.curHop = int64(seg)
		s.cur = s.begin(layerSublattice, out.root, s.curHop)
		res, err := sublattice.Run(box, sublattice.Config{
			PX: s.w.ranks[0], PY: s.w.ranks[1], PZ: s.w.ranks[2],
			Temperature:     temperature,
			TStop:           s.set.tstop,
			Seed:            s.seed + seg,
			ExchangeTimeout: s.set.exchangeTimeout,
			Speculate:       s.set.engine.Speculate,
			Prefetcher:      s.set.engine.Prefetcher,
		}, chunk, s.mk)
		s.end(s.cur)
		if err != nil {
			return fmt.Errorf("segment %d: %w", seg, err)
		}
		box = res.Box
		simTime += res.Time
		if out.ranks == nil {
			out.ranks = make([]sublattice.RankStats, len(res.Stats))
		}
		for r, st := range res.Stats {
			s.parHops += st.Hops
			out.ranks[r].Hops += st.Hops
			out.ranks[r].Discarded += st.Discarded
			out.ranks[r].Sent += st.Sent
		}
		out.hops = s.parHops
		out.ckpt = &core.Checkpoint{Box: box.Clone(), Time: simTime, Hops: out.hops, Segment: seg}
		id := s.begin(layerCore, out.root, int64(seg))
		err = out.ckpt.SaveFile(path)
		s.end(id)
		s.ckptSpans = append(s.ckptSpans, id)
		if err != nil {
			return err
		}
		remaining -= chunk
		if remaining <= s.w.duration*1e-12 {
			remaining = 0
		}
	}
	return nil
}

// ledgerRow is one layer's self time in a traced run.
type ledgerRow struct {
	Layer string  `json:"layer"`
	SelfS float64 `json:"self_s"`
	Frac  float64 `json:"frac"`
}

// selfTimes partitions the root span's wall time: each instant goes to
// the deepest layer with a span open then, so the self times add up to
// the wall time exactly. Concurrent rank spans of one layer count once.
func selfTimes(spans []span, root int32) (self [numLayers]time.Duration, wall time.Duration) {
	type edge struct {
		at    time.Duration
		layer int
		delta int
	}
	r := spans[root]
	edges := make([]edge, 0, 2*len(spans))
	for i, sp := range spans {
		if int32(i) == root || sp.end <= sp.start {
			continue
		}
		edges = append(edges, edge{sp.start, sp.layer, +1}, edge{sp.end, sp.layer, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var open [numLayers]int
	prev := r.start
	for _, e := range edges {
		if e.at > prev {
			deepest := layerRun
			for l := numLayers - 1; l > layerRun; l-- {
				if open[l] > 0 {
					deepest = l
					break
				}
			}
			self[deepest] += e.at - prev
			prev = e.at
		}
		open[e.layer] += e.delta
	}
	self[layerRun] += r.end - prev
	return self, r.end - r.start
}

// layerNames labels the ledger; the model layer takes the name of the
// workload's model.
func layerNames(w workload) [numLayers]string {
	model := "eam"
	switch {
	case w.cached:
		model = "evalserve"
	case w.nnp:
		model = "nnp"
	}
	return [numLayers]string{"unattributed", "kmc", "sublattice", "core", model, "fusion"}
}

// runTraced is one traced attempt: the stack with every wrapper on,
// reporting the per-layer metrics, the self-time ledger and the digest
// (which must equal the untraced run's).
func runTraced(s *stack, workDir string) (rec record, err error) {
	w, net, t := s.w, s.net, s.t
	out, err := s.run(workDir)
	rec.Hops = out.hops
	if err != nil {
		return rec, err
	}
	rec.RunS = out.runS
	if rec.Digest, err = digest(out.ckpt); err != nil {
		return rec, err
	}

	spans := t.spans
	var ckpts []float64
	for _, id := range s.ckptSpans {
		ckpts = append(ckpts, float64(spans[id].end-spans[id].start)/1e6)
	}
	ckptFile := filepath.Join(workDir, "ledger.tkmc")
	if !w.parallel() {
		// A serial deck writes no checkpoint in its run phase; time the
		// one a checkpointed deck would write at the end, outside it.
		start := time.Now()
		if err := out.ckpt.SaveFile(ckptFile); err != nil {
			return rec, err
		}
		ckpts = append(ckpts, float64(time.Since(start).Nanoseconds())/1e6)
	}
	self, wall := selfTimes(spans, out.root)
	names := layerNames(w)
	for l := 0; l < numLayers; l++ {
		rec.Ledger = append(rec.Ledger, ledgerRow{Layer: names[l], SelfS: self[l].Seconds(), Frac: ratio(float64(self[l]), float64(wall))})
	}

	// Layers a workload bypasses stay absent and print as 0.
	L := map[string]float64{}
	hops := float64(out.hops)
	var steps, models, hits, misses, batches, segs []float64
	var modelSum, queueSum float64
	backendIn := map[int32]time.Duration{}
	for _, sp := range spans {
		if sp.layer == layerFusion {
			backendIn[sp.parent] += sp.end - sp.start
		}
	}
	for i, sp := range spans {
		us := float64(sp.end-sp.start) / 1e3
		switch sp.layer {
		case layerKMC:
			steps = append(steps, us)
		case layerSublattice:
			segs = append(segs, us/1e3)
		case layerModel:
			models = append(models, us)
			modelSum += us
			if sp.miss {
				misses = append(misses, us)
				queueSum += us - float64(backendIn[int32(i)])/1e3
			} else {
				hits = append(hits, us)
			}
		case layerFusion:
			batches = append(batches, us)
		}
	}
	wallUS := float64(wall) / 1e3
	L["kmc.evals_per_hop"] = ratio(float64(len(models)), hops)
	L["ledger.unattributed_frac"] = ratio(float64(self[layerRun]), float64(wall))
	if !w.parallel() {
		L["kmc.step_us_p50"] = quantile(steps, 0.5)
		L["kmc.step_us_p99"] = quantile(steps, 0.99)
		L["kmc.self_us_per_hop"] = ratio(float64(self[layerKMC])/1e3, hops)
		L["kmc.refills_per_hop"] = ratio(float64(out.engine.Refills), hops)
		L["kmc.patches_per_hop"] = ratio(float64(out.engine.Patches), hops)
	}
	switch {
	case w.cached:
		L["evalserve.hit_rate"] = ratio(float64(len(hits)), float64(len(models)))
		L["evalserve.hit_us_p50"] = quantile(hits, 0.5)
		L["evalserve.miss_us_p50"] = quantile(misses, 0.5)
		L["evalserve.miss_us_p99"] = quantile(misses, 0.99)
		L["evalserve.queue_us_per_miss"] = ratio(queueSum, float64(len(misses)))
		L["fusion.batch_us_p50"] = quantile(batches, 0.5)
		L["fusion.systems_per_batch"] = ratio(float64(s.be.systems.Load()), float64(s.be.batches.Load()))
	case w.nnp:
		L["nnp.hop_us_p50"] = quantile(models, 0.5)
		L["nnp.hop_us_p99"] = quantile(models, 0.99)
		L["nnp.busy_frac"] = ratio(modelSum, wallUS)
	default:
		L["eam.hop_us_p50"] = quantile(models, 0.5)
		ranks := 1.0
		if w.parallel() {
			ranks = float64(len(out.ranks))
		}
		L["eam.busy_frac"] = ratio(modelSum, ranks*wallUS)
	}
	if w.parallel() {
		var segSum, maxHops, sent, discarded float64
		for _, ms := range segs {
			segSum += ms * 1e3
		}
		for _, st := range out.ranks {
			maxHops = max(maxHops, float64(st.Hops))
			sent += float64(st.Sent)
			discarded += float64(st.Discarded)
		}
		nr := float64(len(out.ranks))
		L["sublattice.segment_ms_p50"] = quantile(segs, 0.5)
		L["sublattice.rank_eval_frac"] = ratio(modelSum, nr*segSum)
		L["sublattice.hop_imbalance"] = ratio(maxHops, hops/nr)
		L["sublattice.changes_per_hop"] = ratio(sent, hops)
		L["sublattice.discards_per_hop"] = ratio(discarded, hops)
	}
	L["core.checkpoint_ms_p50"] = quantile(ckpts, 0.5)
	if fi, err := os.Stat(ckptFile); err == nil {
		L["core.checkpoint_kb"] = float64(fi.Size()) / 1e3
	}

	// Replays outside the run phase: the VET fill at the final vacancies,
	// and the NNP split of the sampled environments.
	L["encoding.fillvet_us"] = replayFillVET(s.tb, out.ckpt.Box)
	if w.nnp {
		r, err := replayNNP(net, s.tb, s.sample.vets)
		if err != nil {
			return rec, err
		}
		L["feature.us_per_state"] = r.featureUS
		L["nnp.forward_us_per_state"] = r.forwardUS
		L["nnp.mflop_per_hop"] = L["kmc.evals_per_hop"] * r.flopsPerSystem / 1e6
		L["nnp.forward_gflops"] = r.gflops
	}
	rec.Layers = L
	return rec, nil
}

// replayFillVET times tb.FillVET at every vacancy of the box, repeated
// until the sample is large enough to time, and returns µs per fill.
func replayFillVET(tb *encoding.Tables, box *lattice.Box) float64 {
	centres := lattice.Vacancies(box)
	if len(centres) == 0 {
		return 0
	}
	vet := tb.NewVET()
	calls := 0
	start := time.Now()
	for calls < 2000 || time.Since(start) < 20*time.Millisecond {
		for _, c := range centres {
			tb.FillVET(vet, c, box.Get)
		}
		calls += len(centres)
	}
	return float64(time.Since(start).Microseconds()) / float64(calls)
}

// nnpReplay is the feature / forward split of the sampled systems.
type nnpReplay struct {
	featureUS, forwardUS float64 // per evaluated state
	flopsPerSystem       float64 // forward FLOPs of one 1+8 evaluation
	gflops               float64
}

// replayNNP re-evaluates every state of the sampled systems through
// feature.ComputeRegion and the per-element network forward, timing the
// two apart. Each state's energy must equal the model's RegionEnergy
// bit for bit, so the split describes the computation the run did.
func replayNNP(net *nnp.Potential, tb *encoding.Tables, vets []encoding.VET) (r nnpReplay, err error) {
	if len(vets) == 0 {
		return r, nil
	}
	ref := nnp.NewLatticeEvaluator(net, tb)
	dim := net.Desc.Dim()
	region := make([]float64, tb.NRegion*dim)
	var x [lattice.NumElements]nnp.Matrix
	for e := range x {
		x[e] = nnp.NewMatrix(tb.NRegion, dim)
	}
	var featT, fwdT time.Duration
	var states, flops float64
	evalState := func(vet encoding.VET) error {
		t0 := time.Now()
		feature.ComputeRegion(tb, ref.Tab, vet, region)
		featT += time.Since(t0)
		var rows [lattice.NumElements]int
		for i := 0; i < tb.NRegion; i++ {
			if sp := vet[i]; sp.IsAtom() {
				e := int(sp)
				net.NormalizeInto(x[e].Row(rows[e]), region[i*dim:(i+1)*dim])
				rows[e]++
			}
		}
		total := 0.0
		for e := 0; e < lattice.NumElements; e++ {
			if rows[e] == 0 {
				continue
			}
			batch := nnp.Matrix{Rows: rows[e], Cols: dim, Data: x[e].Data[:rows[e]*dim]}
			t1 := time.Now()
			out := net.Nets[e].Forward(batch)
			fwdT += time.Since(t1)
			for i := 0; i < rows[e]; i++ {
				total += out.Data[i]
			}
			total += float64(rows[e]) * net.ERef[e]
			flops += float64(rows[e] * net.Nets[e].FlopsPerSample())
		}
		states++
		if want := ref.RegionEnergy(vet); total != want {
			return fmt.Errorf("replayed region energy %v, model computed %v", total, want)
		}
		return nil
	}
	for _, v := range vets {
		vet := append(encoding.VET(nil), v...)
		if err := evalState(vet); err != nil {
			return r, err
		}
		for k := 0; k < 8; k++ {
			if !vet[tb.NN1Index[k]].IsAtom() {
				continue
			}
			tb.ApplyHop(vet, k)
			err := evalState(vet)
			tb.ApplyHop(vet, k)
			if err != nil {
				return r, err
			}
		}
	}
	r.featureUS = float64(featT.Nanoseconds()) / 1e3 / states
	r.forwardUS = float64(fwdT.Nanoseconds()) / 1e3 / states
	r.flopsPerSystem = flops / float64(len(vets))
	r.gflops = ratio(flops, float64(fwdT.Nanoseconds()))
	return r, nil
}
