package rankheap

import (
	"math/rand"
	"sort"
	"testing"
)

// TestExactNonMonotoneOracle drives an Exact with scores that move in
// both directions — the vote-leaderboard regime TopK's bounded
// eviction argument cannot survive — and checks exact agreement with a
// full-sort oracle after every update. Decreases outnumber nothing:
// the walk is symmetric, so members sink out of the elite tier and
// previously demoted members are promoted back purely by OTHER keys'
// decreases, the case that requires remembered overflow scores.
func TestExactNonMonotoneOracle(t *testing.T) {
	const k = 8
	rng := rand.New(rand.NewSource(99))
	ex := NewExact[int, scored](k, betterScored)
	scores := map[int]int{}
	for step := 0; step < 8000; step++ {
		id := rng.Intn(150)
		delta := 1
		if rng.Intn(2) == 0 {
			delta = -1
		}
		scores[id] += delta
		ex.Update(id, scored{id, scores[id]})

		if got, want := ex.Len(), len(scores); got != want {
			t.Fatalf("step %d: Len = %d, want %d members", step, got, want)
		}
		if step%53 != 0 {
			continue
		}
		want := oracleTop(scores, k)
		got := ex.AppendTopTo(nil)
		sort.Slice(got, func(i, j int) bool { return betterScored(got[i], got[j]) })
		if len(got) != len(want) {
			t.Fatalf("step %d: top tier holds %d, want %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d rank %d: got %+v, want %+v\ngot:  %+v\nwant: %+v",
					step, i, got[i], want[i], got, want)
			}
		}
	}
}

// TestExactDecreaseDemotesElite pins the decrease-key crossing: a key
// that was comfortably elite decreases below a remembered overflow
// member and the two must swap tiers.
func TestExactDecreaseDemotesElite(t *testing.T) {
	ex := NewExact[int, scored](2, betterScored)
	ex.Update(1, scored{1, 100})
	ex.Update(2, scored{2, 90})
	ex.Update(3, scored{3, 50}) // overflow, remembered
	if v, ok := ex.Get(3); !ok || v.score != 50 {
		t.Fatalf("overflow member forgotten: %+v %v", v, ok)
	}
	ex.Update(1, scored{1, 10}) // decrease-key: falls below key 3
	top := ex.AppendTopTo(nil)
	sort.Slice(top, func(i, j int) bool { return betterScored(top[i], top[j]) })
	if len(top) != 2 || top[0].id != 2 || top[1].id != 3 {
		t.Fatalf("after decrease, top = %+v, want keys 2,3", top)
	}
	if v, ok := ex.Get(1); !ok || v.score != 10 {
		t.Fatalf("demoted member lost: %+v %v", v, ok)
	}
	ex.Update(3, scored{3, 5}) // and back again
	top = ex.AppendTopTo(nil)
	sort.Slice(top, func(i, j int) bool { return betterScored(top[i], top[j]) })
	if len(top) != 2 || top[0].id != 2 || top[1].id != 1 {
		t.Fatalf("after second decrease, top = %+v, want keys 2,1", top)
	}
}

// TestExactUnderLimit: with fewer keys than the limit, every key is in
// the top tier and overflow stays empty.
func TestExactUnderLimit(t *testing.T) {
	ex := NewExact[int, scored](10, betterScored)
	for id := 0; id < 6; id++ {
		ex.Update(id, scored{id, id})
	}
	if ex.Len() != 6 || ex.elite.len() != 6 {
		t.Fatalf("Len = %d top tier = %d, want 6/6", ex.Len(), ex.elite.len())
	}
	ex.Update(3, scored{3, -100})
	if ex.elite.len() != 6 {
		t.Fatalf("decrease under limit evicted: top tier = %d", ex.elite.len())
	}
}
