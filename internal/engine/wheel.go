package engine

import (
	"math/bits"
	"slices"

	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
)

// This file implements the per-shard timer structure of the sharded engine: a
// hierarchical (page-based radix) timing wheel whose finest tier is one
// lookahead quantum wide. The engine clock is already quantized to the
// lookahead window, so wheel-slot rounding costs no additional fidelity;
// within a slot, events are ordered by (time, seq) at drain time.
//
// Layout. Virtual time is mapped to a slot index u = atNs / qNs. Three levels
// of 256 slots each cover the 2^24 slots around the current position
// ("base"), plus an unbounded overflow list beyond that:
//
//	level 0: events with u>>8  == base>>8  (the current 256-slot page)
//	level 1: events with u>>16 == base>>16 (the current 64k-slot page)
//	level 2: events with u>>24 == base>>24 (the current 16M-slot page)
//	overflow: everything farther out (min slot tracked for promotion)
//
// The page rule makes levels unambiguous: every pending event satisfies
// u >= base, so a level-1 slot can only ever hold events of the current
// 64k-page, and the slot index (u>>8)&255 identifies u uniquely within it
// (same for level 2). There is no wraparound ambiguity to resolve.
//
// As base advances, events are cascaded down: nextSlot first pulls the
// level-1 and level-2 slots covering base down into finer levels, then scans
// the level-0 occupancy bitmap from the current slot (inclusive — so a late
// insert into the slot being drained is never orphaned). When the current
// page is exhausted it jumps base forward to the next occupied coarse slot,
// or promotes the overflow list into the levels.
//
// Concurrency: a wheel is intentionally NOT thread-safe. Each shard's wheel
// is mutated only by its owner worker goroutine while a window is running and
// only by the coordinator between windows (the barrier channels provide the
// happens-before edges). Cross-shard traffic reaches a wheel exclusively via
// the outbox/inbox merge the coordinator performs at window boundaries.

const (
	wheelBits  = 8
	wheelSlots = 1 << wheelBits // 256
	wheelMask  = wheelSlots - 1
)

// sev is one scheduled event, stored by value in wheel slots. Timer events
// carry fn; message deliveries carry (msg, from, to, epoch) with fn == nil,
// so the steady-state Send path allocates no closure and no per-event node.
type sev struct {
	atNs  int64          // virtual time, nanoseconds since engine start
	seq   uint64         // schedule order, ties broken within equal atNs
	fn    func()         // timer callback; nil for message deliveries
	msg   any            // delivery payload (fn == nil)
	from  simnet.NodeRef // delivery sender
	to    simnet.NodeRef // delivery receiver
	epoch uint64         // sender's peer-set epoch at send time
	// tr carries a sampled send's trace context across shards (nil for
	// untraced traffic, which stays at the old sev layout cost plus one
	// pointer).
	tr *otrace.HopRef
}

// bitset256 is the per-level slot occupancy bitmap.
type bitset256 [4]uint64

func (b *bitset256) set(i int)       { b[i>>6] |= 1 << (i & 63) }
func (b *bitset256) clear(i int)     { b[i>>6] &^= 1 << (i & 63) }
func (b *bitset256) test(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// next returns the first set bit at index >= from, or -1.
func (b *bitset256) next(from int) int {
	if from >= wheelSlots {
		return -1
	}
	w := from >> 6
	cur := b[w] &^ (1<<(from&63) - 1)
	for {
		if cur != 0 {
			return w<<6 + bits.TrailingZeros64(cur)
		}
		w++
		if w == 4 {
			return -1
		}
		cur = b[w]
	}
}

type wheel struct {
	qNs     int64 // slot width: the lookahead quantum
	base    int64 // current slot index; pending events all have u >= base
	seq     uint64
	pending int

	slots [3][wheelSlots][]sev
	occ   [3]bitset256

	over    []sev
	overMin int64 // min slot index in over; valid when len(over) > 0

	// spare recycles drained slot backings so steady-state scheduling does
	// not allocate.
	spare [][]sev
}

func (w *wheel) init(qNs int64) { w.qNs = qNs }

// schedule inserts a new event, assigning its sequence number.
func (w *wheel) schedule(e sev) {
	w.seq++
	e.seq = w.seq
	w.place(e)
	w.pending++
}

// place routes an event to its level by the page rule. Slots in the past are
// clamped to base: the event keeps its exact atNs (ordering within the slot
// is by time) but cannot land in a slot the wheel has moved beyond.
func (w *wheel) place(e sev) {
	u := e.atNs / w.qNs
	if u < w.base {
		u = w.base
	}
	switch {
	case u>>wheelBits == w.base>>wheelBits:
		w.slotAppend(0, int(u&wheelMask), e)
	case u>>(2*wheelBits) == w.base>>(2*wheelBits):
		w.slotAppend(1, int((u>>wheelBits)&wheelMask), e)
	case u>>(3*wheelBits) == w.base>>(3*wheelBits):
		w.slotAppend(2, int((u>>(2*wheelBits))&wheelMask), e)
	default:
		if len(w.over) == 0 || u < w.overMin {
			w.overMin = u
		}
		w.over = append(w.over, e)
	}
}

func (w *wheel) slotAppend(level, idx int, e sev) {
	s := w.slots[level][idx]
	if s == nil {
		if k := len(w.spare); k > 0 {
			s = w.spare[k-1]
			w.spare = w.spare[:k-1]
		}
	}
	w.slots[level][idx] = append(s, e)
	w.occ[level].set(idx)
}

// cascade re-places every event of a coarse slot into finer levels. By the
// page rule the events can never route back into the same slot, so this
// strictly makes progress.
func (w *wheel) cascade(level, idx int) {
	evs := w.slots[level][idx]
	w.slots[level][idx] = nil
	w.occ[level].clear(idx)
	for _, e := range evs {
		w.place(e)
	}
	w.recycle(evs)
}

// promote moves the earliest overflow page into the levels.
func (w *wheel) promote() {
	page := w.overMin >> (3 * wheelBits)
	w.base = page << (3 * wheelBits)
	k := 0
	var newMin int64
	for _, e := range w.over {
		u := e.atNs / w.qNs
		if u>>(3*wheelBits) == page {
			w.place(e)
			continue
		}
		if k == 0 || u < newMin {
			newMin = u
		}
		w.over[k] = e
		k++
	}
	w.over = w.over[:k]
	w.overMin = newMin
}

// peekSlot reports the earliest pending slot WITHOUT advancing base. When
// the earliest event lies in the current level-0 page, the returned slot is
// exact. When it lies beyond the page, peekSlot returns a lower bound (the
// start of the next occupied coarse slot) with exact=false — the caller
// must call jump() to resolve it, and may only do so when no pending event
// anywhere in the system lies before the bound (in the sharded engine, only
// the coordinator jumps the shard holding the global minimum bound, so a
// shard's base never passes the global minimum slot — the property that
// keeps cross-shard merges from being clamped into the future).
//
// peekSlot does cascade the coarse slots covering base into finer levels:
// that moves events between levels but never moves base, so it is always
// safe. It returns the same slot when called repeatedly (leftovers put back
// into the current slot are found again: the level-0 scan starts at the
// current slot inclusive).
func (w *wheel) peekSlot() (u int64, exact, ok bool) {
	if w.pending == 0 {
		return 0, false, false
	}
	for {
		// Pull the coarse slots covering base down first: their events
		// belong to the current finer page now.
		if w.occ[1].test(int((w.base >> wheelBits) & wheelMask)) {
			w.cascade(1, int((w.base>>wheelBits)&wheelMask))
			continue
		}
		if w.occ[2].test(int((w.base >> (2 * wheelBits)) & wheelMask)) {
			w.cascade(2, int((w.base>>(2*wheelBits))&wheelMask))
			continue
		}
		break
	}
	if i := w.occ[0].next(int(w.base & wheelMask)); i >= 0 {
		return w.base&^wheelMask | int64(i), true, true
	}
	// Page exhausted: bound by the next occupied coarse slot. Level 1
	// before level 2 — remaining level-2 events are provably later.
	if i := w.occ[1].next(int((w.base>>wheelBits)&wheelMask) + 1); i >= 0 {
		return (w.base>>wheelBits&^wheelMask | int64(i)) << wheelBits, false, true
	}
	if i := w.occ[2].next(int((w.base>>(2*wheelBits))&wheelMask) + 1); i >= 0 {
		return (w.base>>(2*wheelBits)&^wheelMask | int64(i)) << (2 * wheelBits), false, true
	}
	// overMin is the exact minimum slot of the overflow tier, but reaching
	// it requires promotion (a base move), so report it as a bound.
	return w.overMin, false, true
}

// jump performs one coarse advance toward the earliest pending event: it
// moves base to the next occupied coarse slot (or promotes the overflow
// page) and cascades it. Only call after peekSlot returned exact=false, and
// only when no pending event in the system precedes the returned bound.
func (w *wheel) jump() {
	if i := w.occ[1].next(int((w.base>>wheelBits)&wheelMask) + 1); i >= 0 {
		w.base = (w.base>>wheelBits&^wheelMask | int64(i)) << wheelBits
		w.cascade(1, i)
		return
	}
	if i := w.occ[2].next(int((w.base>>(2*wheelBits))&wheelMask) + 1); i >= 0 {
		w.base = (w.base>>(2*wheelBits)&^wheelMask | int64(i)) << (2 * wheelBits)
		w.cascade(2, i)
		return
	}
	if len(w.over) > 0 {
		w.promote()
	}
}

// nextSlot advances base to the earliest non-empty slot and returns its
// index — the single-consumer form of peekSlot/jump, used when one driver
// owns the wheel outright (tests, reference drains). The sharded engine's
// coordinator uses peekSlot/jump instead, because an eager per-shard base
// advance could outrun the global minimum.
func (w *wheel) nextSlot() (int64, bool) {
	for {
		u, exact, ok := w.peekSlot()
		if !ok {
			return 0, false
		}
		if exact {
			w.base = u
			return u, true
		}
		w.jump()
	}
}

// minIn returns the smallest atNs in slot u (which must be the slot nextSlot
// returned). Used once per window to pick the exact window start.
func (w *wheel) minIn(u int64) int64 {
	s := w.slots[0][u&wheelMask]
	m := s[0].atNs
	for _, e := range s[1:] {
		if e.atNs < m {
			m = e.atNs
		}
	}
	return m
}

// takeSlot removes and returns slot u's events. It returns nil when u is not
// in the current level-0 page (a shard with no work in the global window).
func (w *wheel) takeSlot(u int64) []sev {
	if u>>wheelBits != w.base>>wheelBits {
		return nil
	}
	i := int(u & wheelMask)
	if !w.occ[0].test(i) {
		return nil
	}
	evs := w.slots[0][i]
	w.slots[0][i] = nil
	w.occ[0].clear(i)
	w.pending -= len(evs)
	return evs
}

// putBack returns untaken events to slot u (deadline leftovers, or the tail
// of a batch that must be re-merged with late same-slot inserts).
func (w *wheel) putBack(u int64, evs []sev) {
	i := int(u & wheelMask)
	s := w.slots[0][i]
	if s == nil {
		if k := len(w.spare); k > 0 {
			s = w.spare[k-1]
			w.spare = w.spare[:k-1]
		}
	}
	w.slots[0][i] = append(s, evs...)
	w.occ[0].set(i)
	w.pending += len(evs)
}

// slotOccupied reports whether slot u gained events (same-slot inserts made
// while draining it).
func (w *wheel) slotOccupied(u int64) bool {
	return u>>wheelBits == w.base>>wheelBits && w.occ[0].test(int(u&wheelMask))
}

func (w *wheel) recycle(buf []sev) {
	if buf != nil && len(w.spare) < 32 {
		w.spare = append(w.spare, buf[:0])
	}
}

// sevLess orders events by (time, seq) — the total order every drain path
// agrees on. seq is unique, so ties cannot occur between distinct events.
func sevLess(a, b *sev) bool {
	if a.atNs != b.atNs {
		return a.atNs < b.atNs
	}
	return a.seq < b.seq
}

// heapifySev establishes the binary min-heap property over h in place.
func heapifySev(h []sev) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownSev(h, i)
	}
}

// pushSev appends e and restores the heap property (sift-up).
func pushSev(h []sev, e sev) []sev {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !sevLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// popSev removes the minimum (h[0]) and returns the shortened heap.
func popSev(h []sev) []sev {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	if n > 1 {
		siftDownSev(h, 0)
	}
	return h
}

func siftDownSev(h []sev, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && sevLess(&h[r], &h[l]) {
			m = r
		}
		if !sevLess(&h[m], &h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// sortBatch orders one slot's events by (time, seq) — the same total order
// the old binary heap produced.
func sortBatch(batch []sev) {
	slices.SortFunc(batch, func(a, b sev) int {
		if a.atNs != b.atNs {
			if a.atNs < b.atNs {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
}
