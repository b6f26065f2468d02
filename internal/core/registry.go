package core

// This file is the online ball registry: the state behind every Ball
// handle the serving layer (online.go) hands out. It owns the handles and
// their generations, the LIFO free list, the live count, the scalar and
// vector weights and, under a fault plan with evict, the per-bin index
// the eviction hook (faults.go) walks. The Process keeps one by value.
//
// Memory is the point of the layout. A slot is one 8-byte record; the
// free list lives inside the dead records; the weight array exists only
// once a ball of weight != 1 has arrived, and the eviction index only
// under evict. A unit-weight serving loop reserved for 2n balls pays
// 16 B/bin for its registry.

import (
	"fmt"
	"slices"
)

// ballSlot is one registry record. A live slot holds its ball's bin
// (>= 0). A dead slot's bin field holds the free-list link instead,
// encoded below zero so one sign test tells the two apart: -1 ends the
// list and -2-i links to slot i. gen counts the slot's deletions; a
// handle carries the generation it was issued at, so a recycled slot
// rejects the handles of the balls it held before.
type ballSlot struct {
	bin int32
	gen uint32
}

// freeLink encodes a free-list link (a slot index, or -1 for the end of
// the list) as a dead slot's bin field; it is its own inverse.
func freeLink(next int32) int32 { return -2 - next }

// registry is the online ball registry. The zero value is not ready; a
// Process sets it up with init.
type registry struct {
	slots []ballSlot
	free  int32 // first slot of the free list (-1: empty); reuse is LIFO
	live  int

	// wt holds the per-slot scalar weights. It stays nil while every ball
	// has weight 1 and is created, filled with 1s, when the first heavier
	// ball arrives.
	wt []int32

	// vec holds vector mode's weight vectors, dims components per slot
	// (nil in scalar mode, where dims is 0).
	vec  []float64
	dims int

	// head and next are the eviction index, built only under a fault plan
	// with evict (nil otherwise): head[b] is the first slot of bin b's
	// chain and next[i] the slot after i in its bin's chain, -1 ending
	// both. The chains are singly linked on purpose: a prev link would
	// add 4 B per slot, 8 B/bin at Reserve(2n), which puts the
	// serve-faults benchmark's bytes_per_bin about 10% above the
	// four-array registry that scanned every slot on each outage. So
	// taking a ball off its bin (Delete, a Rebalance move) walks that
	// bin's chain: O(balls in the bin) under evict.
	head []int32
	next []int32
	// evs is takeBin's reused scratch.
	evs []int32
}

// init readies an empty registry for vector mode's dims (0: scalar) and,
// when evict is set, the eviction index over bins.
func (r *registry) init(bins, dims int, evict bool) {
	r.free = -1
	r.dims = dims
	if evict {
		r.head = make([]int32, bins)
		for i := range r.head {
			r.head[i] = -1
		}
	}
}

// growTo returns s with capacity for at least n elements.
func growTo[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	ns := make([]T, len(s), n)
	copy(ns, s)
	return ns
}

// reserve pre-sizes every per-slot array that exists for n slots. Each
// is checked on its own: arrays grown by append reach different
// capacities. It never shrinks.
func (r *registry) reserve(n int) {
	r.slots = growTo(r.slots, n)
	if r.wt != nil {
		r.wt = growTo(r.wt, n)
	}
	if r.head != nil {
		r.next = growTo(r.next, n)
	}
	r.vec = growTo(r.vec, n*r.dims)
}

// reset drops every ball, keeping the arrays' storage (a nil array
// stays nil).
func (r *registry) reset() {
	r.slots = r.slots[:0]
	r.wt = r.wt[:0]
	r.vec = r.vec[:0]
	r.next = r.next[:0]
	for i := range r.head {
		r.head[i] = -1
	}
	r.free = -1
	r.live = 0
}

// add registers a live ball of weight w in bin and returns its slot: the
// most recently freed one, or a new slot when the free list is empty.
func (r *registry) add(bin, w int) int32 {
	idx := r.free
	if idx >= 0 {
		r.free = freeLink(r.slots[idx].bin)
	} else {
		idx = int32(len(r.slots))
		r.slots = append(r.slots, ballSlot{})
		if r.wt != nil {
			r.wt = append(r.wt, 1)
		}
		if r.head != nil {
			r.next = append(r.next, -1)
		}
		for c := 0; c < r.dims; c++ {
			r.vec = append(r.vec, 0)
		}
	}
	if r.wt != nil {
		r.wt[idx] = int32(w)
	} else if w != 1 {
		r.wt = make([]int32, len(r.slots), cap(r.slots))
		for i := range r.wt {
			r.wt[i] = 1
		}
		r.wt[idx] = int32(w)
	}
	r.push(idx, bin)
	r.live++
	return idx
}

// push records slot idx in bin and, under evict, puts it at the head of
// bin's chain.
func (r *registry) push(idx int32, bin int) {
	r.slots[idx].bin = int32(bin)
	if r.head != nil {
		r.next[idx] = r.head[bin]
		r.head[bin] = idx
	}
}

// release frees a live slot: the generation moves on, which invalidates
// every handle to it, and the slot heads the free list.
func (r *registry) release(idx int32) {
	if r.head != nil {
		r.unlink(idx)
	}
	s := &r.slots[idx]
	s.gen++
	s.bin = freeLink(r.free)
	r.free = idx
	r.live--
}

// move re-homes a live ball to bin to.
func (r *registry) move(idx int32, to int) {
	if r.head != nil {
		r.unlink(idx)
	}
	r.push(idx, to)
}

// unlink takes a live slot off its bin's chain.
func (r *registry) unlink(idx int32) {
	bin := r.slots[idx].bin
	if r.head[bin] == idx {
		r.head[bin] = r.next[idx]
		return
	}
	p := r.head[bin]
	for r.next[p] != idx {
		p = r.next[p]
	}
	r.next[p] = r.next[idx]
}

// takeBin empties bin's chain and returns the slots it held in ascending
// slot order, the order a scan over every slot would meet them. The
// balls keep bin as their bin until the caller re-homes each with push;
// the result aliases scratch that the next takeBin reuses.
func (r *registry) takeBin(bin int) []int32 {
	evs := r.evs[:0]
	for i := r.head[bin]; i >= 0; i = r.next[i] {
		evs = append(evs, i)
	}
	r.head[bin] = -1
	slices.Sort(evs)
	r.evs = evs
	return evs
}

// resolve maps a handle to its slot, rejecting handles whose slot does not
// exist, is dead, or has moved on to a later generation.
func (r *registry) resolve(b Ball) (int32, error) {
	idx := b.slot()
	if uint32(idx) >= uint32(len(r.slots)) || r.slots[idx].gen != b.gen() || r.slots[idx].bin < 0 {
		return 0, fmt.Errorf("core: ball handle %#x is not live", int64(b))
	}
	return idx, nil
}

// handle returns the handle of a live slot.
func (r *registry) handle(idx int32) Ball { return makeBall(idx, r.slots[idx].gen) }

// bin returns a live slot's bin.
func (r *registry) bin(idx int32) int { return int(r.slots[idx].bin) }

// weight returns a live slot's scalar weight (1 in vector mode).
func (r *registry) weight(idx int32) int {
	if r.wt == nil {
		return 1
	}
	return int(r.wt[idx])
}

// vecOf returns a live slot's weight vector (vector mode).
func (r *registry) vecOf(idx int32) []float64 {
	i := int(idx) * r.dims
	return r.vec[i : i+r.dims]
}
