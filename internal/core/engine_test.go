package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// TestPeekNextMatchesNext: the prefetch target is exactly the round the
// following next() yields, nonce included, and nil at every block boundary
// (before the first round of each block, which is not drawn yet); the
// engine position counts the rounds next() has yielded.
func TestPeekNextMatchesNext(t *testing.T) {
	const n, d = 1000, 5
	for _, block := range []int{1, 3, 0} {
		t.Run(fmt.Sprintf("block=%d", block), func(t *testing.T) {
			rounds := blockRounds(d, block)
			e := newRoundEngine(xrand.New(4), n, d, rounds)
			for j := 0; j < 5*rounds+2; j++ {
				peek := slices.Clone(e.peekNext())
				var nonce uint64
				if peek != nil {
					nonce = e.peekNonce()
				}
				r := e.next()
				got := r.samples
				if boundary := j%rounds == 0; boundary != (peek == nil) {
					t.Fatalf("round %d: peek %v, want nil exactly at block boundaries (every %d rounds)", j, peek, rounds)
				}
				if peek != nil && (!slices.Equal(peek, got) || nonce != r.nonce) {
					t.Fatalf("round %d: peeked %v nonce %#x, next() yielded %v nonce %#x", j, peek, nonce, got, r.nonce)
				}
				if e.pos != uint64(j+1) {
					t.Fatalf("round %d: engine position %d, want %d", j, e.pos, j+1)
				}
			}
		})
	}
}

// peekRecorder records, per round, the samples the round used and the
// prefetch target the process offered right after it.
type peekRecorder struct {
	pr      *Process
	samples [][]int
	peeks   [][]int
}

func (r *peekRecorder) RoundPlaced(_ int, samples, _, _ []int) {
	r.samples = append(r.samples, slices.Clone(samples))
	r.peeks = append(r.peeks, slices.Clone(r.pr.peekNext()))
}

// TestPeekNextUnderProcess drives a real (k,d)-choice process through
// partial final rounds (m not a multiple of k) and mid-block Resets: after
// every round the offered target must be the next round's samples, or nil
// exactly when that round opens a new block.
func TestPeekNextUnderProcess(t *testing.T) {
	const k, d = 3, 7
	for _, block := range []int{1, 3, 0} {
		t.Run(fmt.Sprintf("block=%d", block), func(t *testing.T) {
			pr := MustNew(KDChoice, Params{N: 500, K: k, D: d, Block: block}, xrand.New(21))
			defer pr.Close()
			rec := &peekRecorder{pr: pr}
			pr.SetObserver(rec)
			pr.Place(10*k + 2) // partial final round
			pr.Reset()         // mid-block for every block size above 1
			pr.Place(4*k + 1)
			pr.Place(k)
			rounds := blockRounds(d, block)
			for j := 0; j+1 < len(rec.samples); j++ {
				peek := rec.peeks[j]
				if boundary := (j+1)%rounds == 0; boundary != (peek == nil) {
					t.Fatalf("after round %d: peek %v, want nil exactly before a new block (every %d rounds)", j, peek, rounds)
				}
				if peek != nil && !slices.Equal(peek, rec.samples[j+1]) {
					t.Fatalf("after round %d: peeked %v, round %d used %v", j, peek, j+1, rec.samples[j+1])
				}
			}
		})
	}
}
