package core

// DynamicKD instantiates the paper's second Section 7 future-work sketch:
// "the performance of (k,d)-choice can be further improved by adjusting the
// parameter k dynamically in each round". The paper gives no concrete
// policy, so this file defines one natural instantiation, a substitution of
// this repository (cmd/experiments reports it in ablation AB1, beside the
// strict rule and the water-filling variant):
//
// Each round samples d bins as usual and materializes the slots. Let
// T = floor(ballsPlaced/n) + 1 be the current target ceiling (the best
// possible max load if every bin were filled evenly, plus the ball being
// placed). The round places a ball into EVERY slot with height <= T — the
// round's k_r adapts to how much under-ceiling capacity the sample
// exposed. If no slot qualifies, the single lowest slot receives a ball so
// the process always makes progress.
//
// Intuition: rounds stop "wasting" balls on bins already at the ceiling,
// which is exactly what the paper hopes dynamic k buys; message cost stays
// d per round but the balls-per-round (and so the cost per ball) adapts.

// roundDynamic places between 1 and maxPlace balls and returns the number
// placed. It ranks min(maxPlace, d) slots on the (k,d) selection kernel and
// cuts the ranked prefix at the ceiling: the slots at or below it are a
// prefix of the ranking, since it orders slots by height first.
func (pr *Process) roundDynamic(maxPlace int) int {
	sel := pr.rankSelectWith(pr.roundPrologue(), min(maxPlace, pr.p.D))
	target := pr.balls/pr.n + 1
	toPlace := 1 // progress guarantee: the lowest slot receives a ball
	for toPlace < len(sel) && sel[toPlace].height <= target {
		toPlace++
	}
	pr.placeSelected(sel[:toPlace])
	return toPlace
}
