package nnp

import (
	"math/bits"
	"sync/atomic"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/telemetry"
)

// memoBits is log2 of a Scratch's memo slot count. On the dilute Fe–Cu
// reference decks 1024 slots (about 24 KiB at 6.5 Å) hit ~77% of site
// lookups; 4096 slots hit ~90% at four times the memory per scratch.
const memoBits = 10

// maxKeyWords bounds a memo key; tables whose tallies do not pack into
// it run without the memo.
const maxKeyWords = 4

// memoKey is a site environment packed into words: the site's element
// plus one, then its tally (feature.Table.TallyLen counts), each in a
// fixed-width field. No real key is all zeros, so a zeroed slot is
// empty.
type memoKey [maxKeyWords]uint64

// siteMemo is a direct-mapped cache of per-site network outputs keyed by
// site environment. A site's output is a pure function of its element
// and tally, so a hit is exact; a slot holds the full key, and a lookup
// that finds another key there misses.
type siteMemo struct {
	bits  int      // log2 slot count
	words int      // key words per slot; 0 disables the memo
	field uint     // bits per key field
	keys  []uint64 // (1 << bits) × words
	vals  []float64

	// Keys and slots of the tile rows waiting for the kernel.
	pendKey  [tileRows]memoKey
	pendSlot [tileRows]int32
}

// reset sizes the memo for tallies of n counts over tb and empties it.
// A field holds the largest shell multiplicity of the NET.
func (m *siteMemo) reset(tb *encoding.Tables, n int) {
	mult := make([]int, len(tb.Distances))
	top := 2 // the element field holds up to NumElements
	for _, nb := range tb.Neighbors(0) {
		mult[nb.DistIndex]++
		top = max(top, mult[nb.DistIndex])
	}
	m.field = uint(bits.Len(uint(top)))
	perWord := 64 / int(m.field)
	m.words = (n + 1 + perWord - 1) / perWord
	if m.words > maxKeyWords {
		m.words = 0
		return
	}
	slots := 1 << m.bits
	if len(m.keys) != slots*m.words {
		m.keys = make([]uint64, slots*m.words)
	} else {
		clear(m.keys)
	}
	if len(m.vals) != slots {
		m.vals = make([]float64, slots)
	}
}

// lookup packs (element e, tally cnt) into a key and returns the output
// memoised under it. The key and its slot are parked as tile row r,
// where store finds them if the lookup missed.
func (m *siteMemo) lookup(e int, cnt []uint16, r int) (float64, bool) {
	if m.words == 0 {
		return 0, false
	}
	k := &m.pendKey[r]
	*k = memoKey{uint64(e + 1)}
	w, sh := 0, m.field
	for _, c := range cnt {
		if sh+m.field > 64 {
			w, sh = w+1, 0
		}
		k[w] |= uint64(c) << sh
		sh += m.field
	}
	h := uint64(0)
	for _, x := range k[:m.words] {
		h = (h ^ x) * 0x9e3779b97f4a7c15
	}
	slot := int(h >> (64 - m.bits))
	m.pendSlot[r] = int32(slot)
	for i, x := range m.keys[slot*m.words : (slot+1)*m.words] {
		if x != k[i] {
			return 0, false
		}
	}
	return m.vals[slot], true
}

// store memoises tile row r's output v under its parked key, evicting
// whatever held the slot.
func (m *siteMemo) store(r int, v float64) {
	if m.words == 0 {
		return
	}
	slot := int(m.pendSlot[r])
	copy(m.keys[slot*m.words:(slot+1)*m.words], m.pendKey[r][:m.words])
	m.vals[slot] = v
}

// RowStats counts the per-site outputs of every region and hop energy
// evaluation that reports to it, by source: run through the kernel
// (forward), reused unchanged from the initial state in a final state
// (reuse), or read from the memo (memo). The three add up to the rows a
// full evaluation of every state would run. A nil *RowStats counts
// nothing. Safe for concurrent use.
type RowStats struct {
	forward, reuse, memo atomic.Int64
}

// NewRowStats builds row counters exposed on reg as the
// tkmc_nnp_rows_total{source} family. It returns nil (count nothing)
// when reg is nil.
func NewRowStats(reg *telemetry.Registry) *RowStats {
	if reg == nil {
		return nil
	}
	r := &RowStats{}
	for _, c := range []struct {
		source string
		v      *atomic.Int64
	}{{"forward", &r.forward}, {"reuse", &r.reuse}, {"memo", &r.memo}} {
		reg.CounterFunc(telemetry.MetricNNPRows,
			"NNP per-site outputs by source: run through the kernel, reused from the initial state, or read from the memo.",
			c.v.Load, "source", c.source)
	}
	return r
}

// add records one call's counts.
func (r *RowStats) add(forward, reuse, memo int64) {
	if r == nil {
		return
	}
	r.forward.Add(forward)
	r.reuse.Add(reuse)
	r.memo.Add(memo)
}

// Counts returns the totals so far (zero on a nil *RowStats).
func (r *RowStats) Counts() (forward, reuse, memo int64) {
	if r == nil {
		return 0, 0, 0
	}
	return r.forward.Load(), r.reuse.Load(), r.memo.Load()
}
