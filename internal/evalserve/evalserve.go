// Package evalserve is the shared NNP evaluation service: any number of
// KMC engines — the serial engine, sublattice ranks, or remote clients on
// the wire protocol — submit vacancy systems and receive the exact 1+8
// hop energies of Sec. 3.4.
//
// Requests are (1) deduplicated through a sharded LRU cache keyed on a
// canonical content-address of the VET local environment — the paper's
// vacancy cache (Sec. 3.2) generalized across vacancies and across
// engines — and (2) on miss, coalesced by a batcher into batches
// evaluated by a Backend on a bounded worker pool with backpressure and
// graceful drain.
//
// The hard contract, inherited from the repo's trajectory tests: cached
// and uncached runs must be bit-identical. Three mechanisms enforce it —
// the cache stores the exact f64 outputs, every hit re-verifies the full
// encoded environment (hash equality is never trusted alone), and the
// f64 NNP backend runs the engine's own HopEnergies (see FusionBackend).
package evalserve

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/telemetry/trace"
)

// Options tune the service; zero values take the defaults.
type Options struct {
	// Capacity is the total cache size in entries (default 1<<15).
	Capacity int
	// Shards is the cache shard count (default 8, rounded up to a power
	// of two).
	Shards int
	// MaxBatch bounds how many distinct systems one backend evaluation
	// carries (default 64).
	MaxBatch int
	// Workers is the evaluation worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the pending-miss queue; submitters block when it
	// is full — the service's backpressure (default 4×MaxBatch).
	QueueDepth int
	// SpecQueueDepth bounds the low-priority speculative-prefetch queue.
	// Unlike the demand queue it never blocks: a full queue drops the
	// prefetch (speculation is advisory). Default = QueueDepth.
	SpecQueueDepth int
	// Telemetry, if non-nil, exports the service counters as registry
	// metrics and times backend dispatches under the evalserve/batch span.
	// The registry metrics are function-backed reads of the very same
	// atomics and shard counters that Stats() snapshots, so /metrics and
	// Stats() can never disagree about a value — they are one storage
	// location rendered two ways.
	Telemetry *telemetry.Set
}

// WithDefaults returns a copy with every zero field resolved to its
// default — for callers that need the effective values (e.g. to size a
// backend pool to the worker count).
func (o Options) WithDefaults() Options {
	o.applyDefaults()
	return o
}

func (o *Options) applyDefaults() {
	if o.Capacity <= 0 {
		o.Capacity = 1 << 15
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.MaxBatch
	}
	if o.SpecQueueDepth <= 0 {
		o.SpecQueueDepth = o.QueueDepth
	}
}

// Stats is a point-in-time account of the service.
type Stats struct {
	// Shards holds every cache shard's counters in shard order; the
	// embedded aggregate sums them.
	Shards []CacheStats
	CacheStats
	// Batches counts fused evaluations; BatchedSystems the distinct
	// systems they carried; Deduped the requests answered by a
	// batch-mate's evaluation; MaxBatchWidth the widest batch seen.
	Batches        int64
	BatchedSystems int64
	Deduped        int64
	MaxBatchWidth  int64
	// QueueHighWater is the deepest the pending-miss queue has been.
	QueueHighWater int64
	// WidthHist is the batch-occupancy histogram: WidthHist[w] counts
	// fused batches that evaluated exactly w distinct systems (w capped
	// at MaxBatch; index 0 is unused). Σ_w WidthHist[w] == Batches and
	// Σ_w w·WidthHist[w] == BatchedSystems.
	WidthHist []int64
	// SpecEnqueued / SpecDropped / SpecCoalesced count Prefetch calls
	// that were queued, dropped on a full spec queue, or skipped because
	// the environment was already in flight; SpecBatched counts the
	// speculative systems fused batches actually evaluated.
	SpecEnqueued  int64
	SpecDropped   int64
	SpecCoalesced int64
	SpecBatched   int64
}

// HitRate returns the cache hit fraction (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Occupancy returns the mean distinct systems per fused batch.
func (s Stats) Occupancy() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchedSystems) / float64(s.Batches)
}

// OccupancyP50 returns the median batch width from the occupancy
// histogram (0 when no batches have run): the smallest width w such that
// at least half of all batches were no wider than w.
func (s Stats) OccupancyP50() int64 {
	if s.Batches == 0 || len(s.WidthHist) == 0 {
		return 0
	}
	half := (s.Batches + 1) / 2
	var seen int64
	for w, n := range s.WidthHist {
		seen += n
		if seen >= half {
			return int64(w)
		}
	}
	return int64(len(s.WidthHist) - 1)
}

// String renders the one-line operations summary.
func (s Stats) String() string {
	return fmt.Sprintf("evalserve: %.1f%% hit rate (%d hits, %d misses, %d evictions), %d batches (occupancy mean %.1f p50 %d max %d), %d deduped, %d spec batched (%d warm hits), queue high-water %d",
		100*s.HitRate(), s.Hits, s.Misses, s.Evictions,
		s.Batches, s.Occupancy(), s.OccupancyP50(), s.MaxBatchWidth,
		s.Deduped, s.SpecBatched, s.SpecWarmHits, s.QueueHighWater)
}

// response carries a request's outcome back to its submitter.
type response struct {
	res Result
	err error
}

// request is one pending miss. spec marks a speculative prefetch: nobody
// waits on its done channel (buffered, so completion never blocks), and
// workers only pick it up after all demand work. tctx, when valid,
// carries the submitter's distributed-trace context so the fused batch
// that resolves the request can join its trace; enq is the submission
// time the batch span turns into a queue-wait annotation.
type request struct {
	vet  encoding.VET
	env  []byte
	hash uint64
	spec bool
	tctx trace.Context
	enq  time.Time
	done chan response
}

// flight tracks one environment's in-progress evaluation so concurrent
// misses of the same environment coalesce onto a single backend call
// instead of racing each other into the batcher.
type flight struct {
	env     []byte
	waiters []*request
}

// Server is the evaluation service. It implements kmc.Model (Tables +
// HopEnergies) and is safe for any number of concurrent callers, so a
// single Server can be handed to every engine in a process — the serial
// engine, all sublattice ranks, and the TCP front-end at once.
type Server struct {
	be    Backend
	tb    *encoding.Tables
	cache *Cache
	opts  Options

	reqCh  chan *request
	specCh chan *request // low-priority speculative prefetches
	mu     sync.RWMutex  // closed-flag vs in-flight submissions
	close  sync.Once
	done   bool        // guarded by mu: no sends after close(reqCh)
	closed atomic.Bool // fast-path refusal, checked before the cache
	wg     sync.WaitGroup

	flightMu sync.Mutex
	flights  map[uint64][]*flight

	batches        atomic.Int64
	batchedSystems atomic.Int64
	deduped        atomic.Int64
	maxBatchWidth  atomic.Int64
	queueHighWater atomic.Int64
	specEnqueued   atomic.Int64
	specDropped    atomic.Int64
	specCoalesced  atomic.Int64
	specBatched    atomic.Int64
	widthHist      []atomic.Int64 // index = min(batch width, MaxBatch)

	batchPh *telemetry.Phase   // nil when telemetry is off
	journal *telemetry.Journal // span sink for traced requests; nil when telemetry is off
}

// New starts a service over the backend.
func New(be Backend, opts Options) *Server {
	opts.applyDefaults()
	s := &Server{
		be:        be,
		tb:        be.Tables(),
		cache:     NewCache(opts.Capacity, opts.Shards),
		opts:      opts,
		reqCh:     make(chan *request, opts.QueueDepth),
		specCh:    make(chan *request, opts.SpecQueueDepth),
		flights:   map[uint64][]*flight{},
		widthHist: make([]atomic.Int64, opts.MaxBatch+1),
	}
	s.bindTelemetry(opts.Telemetry)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// bindTelemetry registers the service counters as function-backed
// registry metrics reading the same atomics Stats() snapshots, wires
// the batch-dispatch span, and hands the cache the flight recorder for
// sampled eviction events.
func (s *Server) bindTelemetry(set *telemetry.Set) {
	if set == nil {
		return
	}
	reg := set.Reg()
	agg := func(pick func(CacheStats) int64) func() int64 {
		return func() int64 {
			var total int64
			for _, sh := range s.cache.Stats() {
				total += pick(sh)
			}
			return total
		}
	}
	reg.CounterFunc(telemetry.MetricCacheHits,
		"Evaluation cache lookups answered from a shard.",
		agg(func(c CacheStats) int64 { return c.Hits }))
	reg.CounterFunc(telemetry.MetricCacheMisses,
		"Evaluation cache lookups that fell through to the batcher.",
		agg(func(c CacheStats) int64 { return c.Misses }))
	reg.CounterFunc(telemetry.MetricCacheEvictions,
		"Evaluation cache entries displaced by the LRU policy.",
		agg(func(c CacheStats) int64 { return c.Evictions }))
	reg.CounterFunc(telemetry.MetricCacheCollisions,
		"Hash matches vetoed by the full-environment compare.",
		agg(func(c CacheStats) int64 { return c.Collisions }))
	reg.GaugeFunc(telemetry.MetricCacheEntries,
		"Evaluation cache resident entries.",
		func() float64 {
			var total int64
			for _, sh := range s.cache.Stats() {
				total += int64(sh.Entries)
			}
			return float64(total)
		})
	reg.CounterFunc(telemetry.MetricEvalBatches,
		"Fused evaluation batches dispatched.",
		s.batches.Load)
	reg.CounterFunc(telemetry.MetricEvalBatchedSys,
		"Distinct vacancy systems carried by fused batches.",
		s.batchedSystems.Load)
	reg.CounterFunc(telemetry.MetricEvalDeduped,
		"Requests answered by a batch-mate's in-flight evaluation.",
		s.deduped.Load)
	reg.GaugeFunc(telemetry.MetricEvalQueueHigh,
		"Deepest the pending-miss queue has been.",
		func() float64 { return float64(s.queueHighWater.Load()) })
	reg.CounterFunc(telemetry.MetricEvalSpecEnq,
		"Speculative prefetches accepted onto the low-priority queue.",
		s.specEnqueued.Load)
	reg.CounterFunc(telemetry.MetricEvalSpecDropped,
		"Speculative prefetches dropped on a full queue.",
		s.specDropped.Load)
	reg.CounterFunc(telemetry.MetricEvalSpecBatched,
		"Speculative systems evaluated by fused batches.",
		s.specBatched.Load)
	reg.CounterFunc(telemetry.MetricEvalSpecWarmHits,
		"Demand lookups answered by a speculatively inserted cache entry.",
		agg(func(c CacheStats) int64 { return c.SpecWarmHits }))
	s.batchPh = set.Trace().PhaseAt(telemetry.PhaseEvalServe, telemetry.PhaseBatch)
	s.journal = set.Events()
	s.cache.setJournal(set.Events())
}

// Tables returns the shared encoding tables (kmc.Model interface).
func (s *Server) Tables() *encoding.Tables { return s.tb }

// HopEnergies resolves one vacancy system through the cache-then-batch
// pipeline (kmc.Model interface). Corruption detected during evaluation
// re-panics in the caller's goroutine as *fault.CorruptionError, exactly
// like a direct model evaluation, so engine-layer recovery is unchanged.
func (s *Server) HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	res, err := s.Evaluate(vet)
	if err != nil {
		var ce *fault.CorruptionError
		if errors.As(err, &ce) {
			panic(ce)
		}
		panic(err)
	}
	return res.Initial, res.Final, res.Valid
}

// Evaluate resolves one vacancy system, returning corruption as an error
// (the form the wire front-end needs).
func (s *Server) Evaluate(vet encoding.VET) (Result, error) {
	return s.EvaluateTraced(vet, trace.Context{})
}

// EvaluateTraced is Evaluate carrying a distributed-trace context — the
// server leg of a cross-process trace. With a valid context and live
// telemetry, the request's resolution is recorded as a "serve" span in
// the service's journal (cache hit, flight dedup, or queued miss), and
// the fused batch that evaluates a queued miss hangs its own span
// (batch fill, GEMM time, scatter) under it. An invalid context — or a
// service without telemetry — makes this exactly Evaluate.
func (s *Server) EvaluateTraced(vet encoding.VET, tctx trace.Context) (Result, error) {
	if s.closed.Load() {
		return Result{}, errors.New("evalserve: server closed")
	}
	sp := trace.Start(s.journal, tctx, "serve")
	hash := s.tb.Fingerprint(vet)
	if res, ok := s.cache.Get(hash, vet); ok {
		sp.EndMsg("cache=hit")
		return res, nil
	}
	req := &request{vet: vet, hash: hash, tctx: sp.Context(), done: make(chan response, 1)}
	if s.joinFlight(req) {
		// Another caller is already evaluating this exact environment;
		// its completion answers us too.
		resp := <-req.done
		sp.EndMsg("cache=miss dedup=inflight")
		return resp.res, resp.err
	}
	s.mu.RLock()
	if s.done {
		s.mu.RUnlock()
		err := errors.New("evalserve: server closed")
		s.completeFlight(req.hash, req.env, Result{}, err)
		sp.EndMsg("error=closed")
		return Result{}, err
	}
	req.enq = time.Now()
	s.reqCh <- req // blocks when the queue is full: backpressure
	raiseMax(&s.queueHighWater, int64(len(s.reqCh)))
	s.mu.RUnlock()
	resp := <-req.done
	sp.EndMsg("cache=miss")
	return resp.res, resp.err
}

// Prefetch enqueues a speculative evaluation of a vacancy system the
// caller predicts it will need soon. It never blocks and never returns a
// result: a warm cache, an in-flight evaluation of the same environment,
// a full speculative queue, or a closed server all turn it into a cheap
// no-op. The VET is copied, so the caller may reuse its buffer
// immediately.
//
// Determinism: speculation only inserts cache entries the demand path
// would have computed identically (same backend, same bit-exact fused
// kernels), so enabling or disabling prefetching — or any misprediction
// — can never change a trajectory, only cache temperature. The return
// value reports whether the prefetch was actually queued.
func (s *Server) Prefetch(vet encoding.VET) bool {
	if s.closed.Load() {
		return false
	}
	hash := s.tb.Fingerprint(vet)
	if s.cache.Contains(hash, vet) {
		return false
	}
	req := &request{vet: append(encoding.VET(nil), vet...), hash: hash, spec: true, done: make(chan response, 1)}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.done {
		return false
	}
	// The flight registration and the queue insert happen under one
	// flightMu hold: either both succeed, or the flight is removed before
	// anyone could have joined it — no dangling flights, no lost waiters.
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	for _, f := range s.flights[req.hash] {
		if encoding.MatchEnv(f.env, req.vet) {
			s.specCoalesced.Add(1)
			return false // already being computed; nothing to add
		}
	}
	req.env = s.tb.EncodeEnv(req.vet)
	s.flights[req.hash] = append(s.flights[req.hash], &flight{env: req.env})
	select {
	case s.specCh <- req:
		s.specEnqueued.Add(1)
		return true
	default:
		// Queue full: speculation is advisory, so drop rather than block.
		bucket := s.flights[req.hash]
		bucket = bucket[:len(bucket)-1]
		if len(bucket) == 0 {
			delete(s.flights, req.hash)
		} else {
			s.flights[req.hash] = bucket
		}
		s.specDropped.Add(1)
		return false
	}
}

// joinFlight attaches the request to an in-progress evaluation of the
// same environment if one exists; otherwise it registers a new flight
// (owned by this request) and reports false. The request's canonical
// environment encoding is computed here either way.
func (s *Server) joinFlight(req *request) bool {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	for _, f := range s.flights[req.hash] {
		if encoding.MatchEnv(f.env, req.vet) {
			f.waiters = append(f.waiters, req)
			s.deduped.Add(1)
			return true
		}
	}
	req.env = s.tb.EncodeEnv(req.vet)
	s.flights[req.hash] = append(s.flights[req.hash], &flight{env: req.env})
	return false
}

// completeFlight deregisters an environment's flight and answers every
// waiter that joined while it was pending. The cache entry must already
// be in place (a miss arriving after deregistration re-evaluates, and the
// batcher's second-chance lookup resolves it from the cache).
func (s *Server) completeFlight(hash uint64, env []byte, res Result, err error) {
	s.flightMu.Lock()
	bucket := s.flights[hash]
	var waiters []*request
	for i, f := range bucket {
		if bytes.Equal(f.env, env) {
			waiters = f.waiters
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(s.flights, hash)
	} else {
		s.flights[hash] = bucket
	}
	s.flightMu.Unlock()
	for _, w := range waiters {
		w.done <- response{res: res, err: err}
	}
}

// Close stops accepting work, drains every queued request — demand and
// speculative alike, since a demand caller may be waiting on a flight a
// prefetch owns — and waits for the workers to finish. It is idempotent.
func (s *Server) Close() {
	s.close.Do(func() {
		s.closed.Store(true)
		s.mu.Lock()
		s.done = true
		close(s.reqCh)
		close(s.specCh)
		s.mu.Unlock()
		s.wg.Wait()
	})
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Shards:         s.cache.Stats(),
		Batches:        s.batches.Load(),
		BatchedSystems: s.batchedSystems.Load(),
		Deduped:        s.deduped.Load(),
		MaxBatchWidth:  s.maxBatchWidth.Load(),
		QueueHighWater: s.queueHighWater.Load(),
		SpecEnqueued:   s.specEnqueued.Load(),
		SpecDropped:    s.specDropped.Load(),
		SpecCoalesced:  s.specCoalesced.Load(),
		SpecBatched:    s.specBatched.Load(),
		WidthHist:      make([]int64, len(s.widthHist)),
	}
	for w := range s.widthHist {
		st.WidthHist[w] = s.widthHist[w].Load()
	}
	for _, sh := range st.Shards {
		st.CacheStats.add(sh)
	}
	return st
}

// worker pulls pending misses, coalescing everything immediately
// available (up to MaxBatch) into one backend evaluation. Demand requests
// always fill first; any leftover width is topped up from the
// speculative queue — the speculation payoff: batches that would have
// gone out narrow instead carry prefetch work that warms the cache for
// free. With a single synchronous caller and no speculation, batches
// degenerate to width 1.
func (s *Server) worker() {
	defer s.wg.Done()
	reqCh, specCh := s.reqCh, s.specCh
	for reqCh != nil || specCh != nil {
		// Block until any work arrives (a nil channel never fires).
		var batch []*request
		select {
		case r, ok := <-reqCh:
			if !ok {
				reqCh = nil
				continue
			}
			batch = append(batch, r)
		case r, ok := <-specCh:
			if !ok {
				specCh = nil
				continue
			}
			batch = append(batch, r)
		}
		// Fill with everything immediately available: demand first...
		for reqCh != nil && len(batch) < s.opts.MaxBatch {
			select {
			case r, ok := <-reqCh:
				if !ok {
					reqCh = nil
					continue
				}
				batch = append(batch, r)
				continue
			default:
			}
			break
		}
		// ...then speculative top-up of the remaining width.
		for specCh != nil && len(batch) < s.opts.MaxBatch {
			select {
			case r, ok := <-specCh:
				if !ok {
					specCh = nil
					continue
				}
				batch = append(batch, r)
				continue
			default:
			}
			break
		}
		s.serve(batch)
	}
}

// serve deduplicates a batch, re-checks the cache (another worker may
// have filled an entry since the miss), evaluates the remaining distinct
// systems in one backend call, stores the exact outputs, and fans results
// out to every submitter.
func (s *Server) serve(batch []*request) {
	sw := s.batchPh.Start()
	defer sw.Stop()
	// Every queued request owns a distinct environment's flight (joiners
	// never enqueue), so no intra-batch dedup is needed — only a
	// second-chance cache check, since an entry may have landed between
	// the caller's miss and this dispatch.
	pending := batch[:0]
	for _, r := range batch {
		if res, ok := s.cache.peek(r.hash, r.vet, !r.spec); ok {
			r.done <- response{res: res}
			s.completeFlight(r.hash, r.env, res, nil)
			continue
		}
		pending = append(pending, r)
	}
	if len(pending) == 0 {
		return
	}

	vets := make([]encoding.VET, len(pending))
	for i, r := range pending {
		vets[i] = r.vet
	}
	// The fused batch joins the trace of the first traced request it
	// serves — the lineage a cross-process tree needs to show where a
	// queued miss actually spent its time (fill, GEMM, scatter).
	var bsp *trace.Span
	for _, r := range pending {
		if r.tctx.Valid() {
			bsp = trace.Start(s.journal, r.tctx, "batch")
			if !r.enq.IsZero() {
				bsp.Event("queue-wait %.3fms", float64(time.Since(r.enq).Microseconds())/1e3)
			}
			break
		}
	}
	gemmStart := time.Now()
	results, err := s.evaluate(vets)
	if err != nil {
		bsp.EndMsg("error=%v", err)
		for _, r := range pending {
			r.done <- response{err: err}
			s.completeFlight(r.hash, r.env, Result{}, err)
		}
		return
	}
	gemm := time.Since(gemmStart)
	var specN int64
	for i, r := range pending {
		if r.spec {
			s.cache.PutSpeculative(r.hash, r.env, results[i])
			specN++
		} else {
			s.cache.Put(r.hash, r.env, results[i])
		}
		r.done <- response{res: results[i]}
		s.completeFlight(r.hash, r.env, results[i], nil)
	}
	bsp.EndMsg("width=%d spec=%d gemm=%.3fms", len(pending), specN, float64(gemm.Microseconds())/1e3)

	s.batches.Add(1)
	s.batchedSystems.Add(int64(len(pending)))
	s.specBatched.Add(specN)
	w := len(pending)
	if w >= len(s.widthHist) {
		w = len(s.widthHist) - 1
	}
	s.widthHist[w].Add(1)
	raiseMax(&s.maxBatchWidth, int64(len(pending)))
}

// raiseMax lifts *m to at least v. A plain load-compare-store here would
// race: two goroutines could each pass the compare and the smaller store
// could land last, regressing the high-water mark. The CAS loop retries
// until either our value is published or someone else published a larger
// one.
func raiseMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// evaluate runs the backend, converting a corruption tripwire panic into
// an error so a poisoned batch fails its submitters instead of killing
// the worker pool.
func (s *Server) evaluate(vets []encoding.VET) (results []Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			if ce, ok := p.(*fault.CorruptionError); ok {
				err = ce
				return
			}
			panic(p)
		}
	}()
	results = s.be.EvaluateBatch(vets)
	if len(results) != len(vets) {
		return nil, fmt.Errorf("evalserve: backend returned %d results for %d systems", len(results), len(vets))
	}
	return results, nil
}
