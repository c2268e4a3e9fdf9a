// Package mpi provides the message-passing substrate of the parallel
// AKMC engine: a fixed-size world of ranks (goroutines) with typed
// point-to-point channels, barriers, all-reduce and all-gather
// collectives. It mirrors the subset of MPI the paper's swmpi code path
// uses (point-to-point ghost synchronisation and collective reductions),
// scaled to a single shared-memory process.
//
// At the paper's 27.5M-core scale, rank failure is routine rather than
// exceptional, so the fabric is fault-aware: every blocking primitive
// has a timeout-taking, error-returning variant; a barrier that times
// out latches the whole world into a broken state whose error names the
// ranks that never arrived (the deadlock diagnostic); a watchdog can
// observe which ranks are stalled on whom; and a Chaos interposer
// injects message drops, duplications, delays and rank stalls under
// test control.
package mpi

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"tensorkmc/internal/telemetry"
)

// ErrTimeout is wrapped by receive/barrier timeout errors.
var ErrTimeout = errors.New("timed out")

// ErrFull is returned by TrySend when the destination queue is full.
var ErrFull = errors.New("mpi: send buffer full")

// StallError reports a collective that timed out: the ranks that never
// arrived (the stalled ones) and the ranks that were left waiting on
// them. It is the named-rank diagnostic a hung sweep aborts with.
type StallError struct {
	Timeout time.Duration
	Missing []int
	Waiting []int
}

func (e *StallError) Error() string {
	return fmt.Sprintf("mpi: barrier %v after %v: ranks %v never arrived (ranks %v were waiting on them)",
		ErrTimeout, e.Timeout, e.Missing, e.Waiting)
}

// Unwrap lets errors.Is(err, ErrTimeout) match.
func (e *StallError) Unwrap() error { return ErrTimeout }

// message is one tagged payload in flight.
type message struct {
	tag  int
	data any
}

// World is a communicator over n ranks. Create it once, then hand each
// goroutine its Comm via Comm(rank).
type World struct {
	size  int
	chans [][]chan message // chans[from][to]

	mu       sync.Mutex
	cond     *sync.Cond
	arrived  int
	gen      int
	present  []bool        // ranks arrived at the in-progress barrier
	broken   error         // latched on the first timed-out collective
	brokenCh chan struct{} // closed when broken latches (wakes channel waiters)

	reduce []float64

	// Per-rank all-gather protocol state. Each slot is touched only by
	// its owning rank's goroutine, so no lock is needed beyond the seq
	// allocation under mu.
	gatherSeq     []int       // next collective sequence number, per rank
	gatherPending [][]message // stashed future-seq messages, [me*size+from]

	chaos *Chaos

	// Per-rank fabric counters (nil-safe no-ops when telemetry is off):
	// sends[r] counts messages rank r put on the wire, recvs[r] counts
	// messages rank r accepted, timeouts[r] counts deadline expiries
	// rank r experienced while waiting on peers.
	sends, recvs, timeouts []*telemetry.Counter
	journal                *telemetry.Journal

	statusMu sync.Mutex
	status   []activity // watchdog state, indexed by rank
}

// NewWorld creates a world of n ranks with buffered channels.
func NewWorld(n int) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", n))
	}
	w := &World{
		size:          n,
		reduce:        make([]float64, n),
		present:       make([]bool, n),
		status:        make([]activity, n),
		brokenCh:      make(chan struct{}),
		gatherSeq:     make([]int, n),
		gatherPending: make([][]message, n*n),
	}
	w.cond = sync.NewCond(&w.mu)
	w.chans = make([][]chan message, n)
	for i := range w.chans {
		w.chans[i] = make([]chan message, n)
		for j := range w.chans[i] {
			w.chans[i][j] = make(chan message, 64)
		}
	}
	return w
}

// breakWorldLocked latches the world broken with err (first error wins)
// and wakes everything waiting on it: condition-variable waiters
// (barriers, stalled ranks) and channel waiters (gather receives) alike.
// Must be called with w.mu held. It returns the latched error.
func (w *World) breakWorldLocked(err error) error {
	if w.broken == nil {
		w.broken = err
		close(w.brokenCh)
		w.cond.Broadcast()
		w.journal.Record("mpi-stall", "world broken: %v", err)
	}
	return w.broken
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// SetChaos installs a fault interposer (nil removes it). Install before
// the ranks start communicating.
func (w *World) SetChaos(c *Chaos) { w.chaos = c }

// SetTelemetry exports the fabric's per-rank send/recv/timeout counters
// into the registry (labelled rank="<r>") and records stall diagnoses
// in the flight-recorder journal. Install before the ranks start
// communicating; either argument may be nil.
func (w *World) SetTelemetry(reg *telemetry.Registry, j *telemetry.Journal) {
	w.journal = j
	if reg == nil {
		return
	}
	w.sends = make([]*telemetry.Counter, w.size)
	w.recvs = make([]*telemetry.Counter, w.size)
	w.timeouts = make([]*telemetry.Counter, w.size)
	for r := 0; r < w.size; r++ {
		label := strconv.Itoa(r)
		w.sends[r] = reg.Counter(telemetry.MetricMPISends,
			"Messages each rank put on the fabric.", "rank", label)
		w.recvs[r] = reg.Counter(telemetry.MetricMPIRecvs,
			"Messages each rank accepted from the fabric.", "rank", label)
		w.timeouts[r] = reg.Counter(telemetry.MetricMPITimeouts,
			"Deadline expiries each rank experienced waiting on peers.", "rank", label)
	}
}

// countSend / countRecv / countTimeout bump the per-rank fabric
// counters; all are no-ops until SetTelemetry installs them.
func (w *World) countSend(rank int) {
	if w.sends != nil {
		w.sends[rank].Inc()
	}
}

func (w *World) countRecv(rank int) {
	if w.recvs != nil {
		w.recvs[rank].Inc()
	}
}

func (w *World) countTimeout(rank int) {
	if w.timeouts != nil {
		w.timeouts[rank].Inc()
	}
}

// Err returns the latched fabric error, or nil while the world is
// healthy. Once a collective times out the world is permanently broken:
// every subsequent collective fails fast with the same error.
func (w *World) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// Comm returns rank r's endpoint.
func (w *World) Comm(r int) *Comm {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range", r))
	}
	return &Comm{world: w, rank: r}
}

// Comm is one rank's communicator endpoint.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send delivers data to rank `to` with a tag. Buffered: blocks only if
// the destination queue is full (64 in-flight messages).
func (c *Comm) Send(to, tag int, data any) {
	c.world.send(c.rank, to, tag, data, true)
}

// TrySend is the non-blocking Send: it returns ErrFull instead of
// blocking when the destination queue is full.
func (c *Comm) TrySend(to, tag int, data any) error {
	return c.world.send(c.rank, to, tag, data, false)
}

func (w *World) send(from, to, tag int, data any, block bool) error {
	if to < 0 || to >= w.size {
		panic(fmt.Sprintf("mpi: send to rank %d out of range", to))
	}
	m := message{tag: tag, data: data}
	copies := 1
	if ch := w.chaos; ch != nil {
		drop, dup, delay := ch.onSend(from, to)
		if drop {
			return nil // silently lost, like the network it simulates
		}
		if dup {
			copies = 2
		}
		if delay > 0 {
			dst := w.chans[from][to]
			n := copies
			time.AfterFunc(delay, func() {
				for i := 0; i < n; i++ {
					dst <- m
				}
			})
			w.countSend(from)
			return nil
		}
	}
	for i := 0; i < copies; i++ {
		if block {
			w.chans[from][to] <- m
		} else {
			select {
			case w.chans[from][to] <- m:
			default:
				return ErrFull
			}
		}
	}
	w.countSend(from)
	return nil
}

// Recv blocks for the next message from rank `from` and checks its tag.
// Messages between a rank pair are FIFO; a tag mismatch indicates a
// protocol error and panics. RecvTimeout is the fault-aware variant.
func (c *Comm) Recv(from, tag int) any {
	v, err := c.RecvTimeout(from, tag, 0)
	if err != nil {
		panic(err.Error())
	}
	return v
}

// RecvTimeout waits up to d for the next message from rank `from`. A
// non-positive d blocks indefinitely. It returns an error wrapping
// ErrTimeout when the deadline passes, and an error (instead of Recv's
// panic) on a tag mismatch.
func (c *Comm) RecvTimeout(from, tag int, d time.Duration) (any, error) {
	if from < 0 || from >= c.world.size {
		return nil, fmt.Errorf("mpi: recv from rank %d out of range", from)
	}
	c.setActivity(opRecv, from, tag)
	defer c.clearActivity()

	var m message
	src := c.world.chans[from][c.rank]
	if d <= 0 {
		m = <-src
	} else {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case m = <-src:
		case <-timer.C:
			c.world.countTimeout(c.rank)
			return nil, fmt.Errorf("mpi: rank %d receive %w: no message from rank %d (tag %d) within %v",
				c.rank, ErrTimeout, from, tag, d)
		}
	}
	c.world.countRecv(c.rank)
	if m.tag != tag {
		return nil, fmt.Errorf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, from, m.tag)
	}
	return m.data, nil
}

// Barrier blocks until all ranks have entered it. If the world has been
// broken by a timed-out collective it panics with the stall diagnostic
// rather than hanging forever; use BarrierTimeout for the error-returning
// path.
func (c *Comm) Barrier() {
	if err := c.barrier(0); err != nil {
		panic(err.Error())
	}
}

// BarrierTimeout is the fault-aware Barrier: if any rank fails to arrive
// within d, the call breaks the world and every participant receives a
// *StallError naming the missing ranks. A non-positive d blocks
// indefinitely. After the world breaks, all collectives fail fast.
func (c *Comm) BarrierTimeout(d time.Duration) error {
	return c.barrier(d)
}

func (c *Comm) barrier(d time.Duration) error {
	w := c.world
	c.setActivity(opBarrier, -1, 0)
	defer c.clearActivity()

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}

	if ch := w.chaos; ch != nil && ch.Stalled(c.rank) {
		// Simulate a dead rank: never arrive. The rank unblocks only when
		// a surviving peer's timeout breaks the world (so chaos tests
		// terminate instead of leaking the goroutine).
		for w.broken == nil {
			w.cond.Wait()
		}
		return w.broken
	}

	gen := w.gen
	w.present[c.rank] = true
	w.arrived++
	if w.arrived == w.size {
		w.arrived = 0
		w.gen++
		for i := range w.present {
			w.present[i] = false
		}
		w.cond.Broadcast()
		return nil
	}

	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
		timer := time.AfterFunc(d, func() {
			w.mu.Lock()
			w.cond.Broadcast()
			w.mu.Unlock()
		})
		defer timer.Stop()
	}
	for gen == w.gen && w.broken == nil {
		if d > 0 && !time.Now().Before(deadline) {
			var missing, waiting []int
			for r, p := range w.present {
				if p {
					waiting = append(waiting, r)
				} else {
					missing = append(missing, r)
				}
			}
			w.countTimeout(c.rank)
			w.breakWorldLocked(&StallError{Timeout: d, Missing: missing, Waiting: waiting})
			break
		}
		w.cond.Wait()
	}
	return w.broken
}

// AllGather collects one value from every rank; the returned slice is
// indexed by rank and identical on all ranks. It must be called by all
// ranks collectively.
func (c *Comm) AllGather(v any) []any {
	out, err := c.AllGatherTimeout(v, 0)
	if err != nil {
		panic(err.Error())
	}
	return out
}

// gatherTagBase namespaces collective messages away from user tags; the
// offset from the base is the collective's sequence number.
const gatherTagBase = 1 << 30

// AllGatherTimeout is the fault-aware AllGather. It runs over the
// point-to-point fabric — every rank sends its payload to every peer,
// tagged with a per-world collective sequence number — so the Chaos
// interposer's message faults exercise it exactly as they would a real
// interconnect:
//
//   - duplicated messages are detected by their stale sequence number
//     and discarded, never delivered twice;
//   - delayed messages that overtake a later collective are stashed and
//     consumed by the collective they belong to, restoring order;
//   - dropped messages surface as a *StallError after d naming the
//     ranks whose payloads never arrived, which breaks the world so
//     every rank fails fast instead of hanging.
//
// A non-positive d blocks forever (modulo another rank breaking the
// world). Completion still synchronises the ranks: no rank returns
// before every rank has entered the collective and its payload arrived.
func (c *Comm) AllGatherTimeout(v any, d time.Duration) ([]any, error) {
	w := c.world
	w.mu.Lock()
	if w.broken != nil {
		err := w.broken
		w.mu.Unlock()
		return nil, err
	}
	if ch := w.chaos; ch != nil && ch.Stalled(c.rank) {
		// A dead rank never participates; it unblocks only when a
		// surviving peer's timeout breaks the world (so tests terminate
		// instead of leaking the goroutine).
		for w.broken == nil {
			w.cond.Wait()
		}
		err := w.broken
		w.mu.Unlock()
		return nil, err
	}
	seq := w.gatherSeq[c.rank]
	w.gatherSeq[c.rank]++
	w.mu.Unlock()

	tag := gatherTagBase + seq
	for to := 0; to < w.size; to++ {
		if to != c.rank {
			c.Send(to, tag, v)
		}
	}

	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	out := make([]any, w.size)
	got := make([]bool, w.size)
	out[c.rank], got[c.rank] = v, true
	for from := 0; from < w.size; from++ {
		if got[from] {
			continue
		}
		if c.gatherFrom(from, tag, out, got, deadline) {
			continue
		}
		// Timed out waiting on `from`. Messages from later peers may
		// already be buffered; sweep them up non-blockingly so the
		// diagnostic names only the ranks that truly never delivered.
		for p := 0; p < w.size; p++ {
			if !got[p] {
				c.gatherSweep(p, tag, out, got)
			}
		}
		var missing []int
		for p, ok := range got {
			if !ok {
				missing = append(missing, p)
			}
		}
		if len(missing) == 0 {
			continue // the sweep found everything after all
		}
		w.countTimeout(c.rank)
		w.mu.Lock()
		err := w.breakWorldLocked(&StallError{Timeout: d, Missing: missing, Waiting: []int{c.rank}})
		w.mu.Unlock()
		return nil, err
	}
	return out, nil
}

// gatherFrom blocks until peer `from`'s payload for the collective
// tagged `tag` is available (from the pending stash or the wire),
// recording it in out/got. It returns false on deadline expiry and
// propagates a broken world by reporting the peer as not delivered.
func (c *Comm) gatherFrom(from, tag int, out []any, got []bool, deadline time.Time) bool {
	w := c.world
	if c.gatherSweep(from, tag, out, got) {
		return true
	}
	c.setActivity(opRecv, from, tag)
	defer c.clearActivity()
	src := w.chans[from][c.rank]
	for {
		var m message
		if deadline.IsZero() {
			select {
			case m = <-src:
			case <-w.brokenCh:
				return false
			}
		} else {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return false
			}
			timer := time.NewTimer(remaining)
			select {
			case m = <-src:
				timer.Stop()
			case <-w.brokenCh:
				timer.Stop()
				return false
			case <-timer.C:
				return false
			}
		}
		if c.gatherAccept(from, tag, m, out, got) {
			return true
		}
	}
}

// gatherAccept files one received message during a collective: the
// awaited sequence completes the gather, stale sequences (duplicates or
// long-delayed stragglers) are discarded, and future sequences — a peer
// already in its next collective whose earlier message was delayed past
// ours — are stashed for the collective they belong to. Messages from
// outside the collective tag space indicate interleaved point-to-point
// traffic, a protocol violation.
func (c *Comm) gatherAccept(from, tag int, m message, out []any, got []bool) bool {
	switch {
	case m.tag == tag:
		out[from], got[from] = m.data, true
		c.world.countRecv(c.rank)
		return true
	case m.tag >= gatherTagBase && m.tag < tag:
		return false // stale duplicate or straggler: drop
	case m.tag > tag:
		w := c.world
		slot := c.rank*w.size + from
		w.gatherPending[slot] = append(w.gatherPending[slot], m)
		return false
	default:
		panic(fmt.Sprintf("mpi: rank %d gather received point-to-point tag %d from rank %d", c.rank, m.tag, from))
	}
}

// gatherSweep drains peer `from`'s stash and any buffered channel
// messages without blocking, filing them as gatherAccept does. It
// reports whether the awaited payload was found.
func (c *Comm) gatherSweep(from, tag int, out []any, got []bool) bool {
	w := c.world
	slot := c.rank*w.size + from
	pending := w.gatherPending[slot]
	w.gatherPending[slot] = pending[:0]
	for _, m := range pending {
		if !got[from] && m.tag == tag {
			out[from], got[from] = m.data, true
		} else if m.tag > tag {
			w.gatherPending[slot] = append(w.gatherPending[slot], m)
		}
	}
	if got[from] {
		return true
	}
	for {
		select {
		case m := <-w.chans[from][c.rank]:
			if c.gatherAccept(from, tag, m, out, got) {
				return true
			}
		default:
			return false
		}
	}
}

// AllReduceSum returns the sum of v over all ranks. Collective.
func (c *Comm) AllReduceSum(v float64) float64 {
	w := c.world
	w.mu.Lock()
	w.reduce[c.rank] = v
	w.mu.Unlock()
	c.Barrier()
	var s float64
	for _, x := range w.reduce {
		s += x
	}
	c.Barrier()
	return s
}

// AllReduceMax returns the maximum of v over all ranks. Collective.
func (c *Comm) AllReduceMax(v float64) float64 {
	w := c.world
	w.mu.Lock()
	w.reduce[c.rank] = v
	w.mu.Unlock()
	c.Barrier()
	m := w.reduce[0]
	for _, x := range w.reduce[1:] {
		if x > m {
			m = x
		}
	}
	c.Barrier()
	return m
}

// Run launches fn on every rank of a fresh world and waits for all to
// finish. Panics in any rank are re-raised on the caller.
func Run(n int, fn func(c *Comm)) {
	RunWorld(NewWorld(n), fn)
}

// RunWorld is Run over a caller-constructed world, so chaos interposers
// and watchdogs can be installed before the ranks start. A rank that
// panics breaks the world, so peers blocked on it in a collective return
// (or panic) instead of hanging; once every rank has finished, the first
// panic is re-raised on the caller.
func RunWorld(w *World, fn func(c *Comm)) {
	var wg sync.WaitGroup
	var first error
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					err := fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
					w.mu.Lock()
					if first == nil {
						first = err
					}
					w.breakWorldLocked(err)
					w.mu.Unlock()
				}
			}()
			fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	if first != nil {
		panic(first.Error())
	}
}

// Abort breaks the world with err on behalf of this rank: every
// collective blocked on it, and every later one, returns (or panics
// with) the world's error instead of waiting. The first break wins.
func (c *Comm) Abort(err error) {
	w := c.world
	w.mu.Lock()
	w.breakWorldLocked(err)
	w.mu.Unlock()
}
