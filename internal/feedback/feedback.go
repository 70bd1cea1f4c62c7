// Package feedback closes the tutorial's execution-feedback loop: exact
// sub-plan cardinalities from one run feed the next plan (PilotScope's
// push-cards operator [80], LPCE's execution feedback [59]). A Store
// holds the truths by canonical sub-query key, Harvest fills it from a
// run's record, and an Overlay answers the optimizer from it.
package feedback

import (
	"context"
	"slices"
	"sync"

	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// Cap bounds a Store, in sub-query keys.
const Cap = 8192

// Store is a bounded, deterministic store of exact sub-query
// cardinalities. An existing key always updates; a new key lands only
// under Cap, so a full store stays full until Reset, and callers write
// in a fixed order (plan pre-order, ascending masks), so which keys a
// nearly full store admits repeats. A key's slot never moves; Reset
// starts a generation, staling every Record. Harvest, Current and Write
// run under the embedded mutex, held by the caller, so that it can look
// up a Record and write through it in one hold; the other methods lock.
type Store struct {
	sync.Mutex
	slots map[string]int32 // sub-query key -> index of its truth in cards
	cards []float64
	// hashes holds the query.JoinGraph.KeyHash of every key in slots:
	// the overlay renders a mask's key only when its hash is here.
	hashes  map[uint64]struct{}
	keyBuf  []byte
	hashBuf []uint64
	gen     uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{slots: make(map[string]int32), hashes: make(map[uint64]struct{}), gen: 1}
}

// A Record is where runs of one plan for one binding write their truths:
// the slot of every node in pre-order (-1: not admitted), valid in the
// generation that wrote it. The zero Record is stale.
type Record struct {
	slots []int32
	gen   uint64
}

// Invalidate makes r stale, keeping its storage.
func (r *Record) Invalidate() { r.gen = 0 }

// Harvest writes cards, the record of a run of p (exec.Result.Cards: one
// true cardinality per node in pre-order), under each node's sub-query
// key in g, the join graph of p's query, through one reused key buffer;
// only a key new to the store allocates or is hashed. A non-nil rec
// records the slots. p is only read.
func (s *Store) Harvest(g *query.JoinGraph, p *plan.Node, cards []float64, rec *Record) {
	if rec != nil {
		rec.slots, rec.gen = rec.slots[:0], s.gen
	}
	i := 0
	p.WalkLogicalMasks(g, func(_ *plan.Node, mask uint64) {
		s.keyBuf = g.AppendKey(s.keyBuf[:0], mask)
		slot := s.put(g, mask, cards[i])
		if rec != nil {
			rec.slots = append(rec.slots, slot)
		}
		i++
	})
}

// Current reports whether rec is of the store's generation, so that
// Write through it writes what Harvest would.
func (s *Store) Current(rec *Record) bool { return rec.gen == s.gen }

// Write writes a run's cards through rec, a Current record of the same
// binding's plan: by slot, with no graph and no key.
func (s *Store) Write(rec *Record, cards []float64) {
	for i, slot := range rec.slots {
		if slot >= 0 {
			s.cards[slot] = cards[i]
		}
	}
}

// Push stores the truths, keyed like query.Query.Key, that name a
// sub-query of g's, rendering the key of every non-empty mask in
// ascending order; past 13 aliases, whose 8191 masks fit in a store,
// only the connected masks, the sub-queries a driver can pull.
func (s *Store) Push(g *query.JoinGraph, truths map[string]float64) {
	if len(truths) == 0 {
		return
	}
	s.Lock()
	defer s.Unlock()
	push := func(m uint64) {
		s.keyBuf = g.AppendKey(s.keyBuf[:0], m)
		if c, ok := truths[string(s.keyBuf)]; ok {
			s.put(g, m, c)
		}
	}
	if n := len(g.Aliases); n <= 13 {
		for m := uint64(1); m < 1<<n; m++ {
			push(m)
		}
		return
	}
	for _, set := range g.ConnectedSubsets(0) {
		push(g.Mask(query.SetOf(set)))
	}
}

// put writes card as the truth of the key in s.keyBuf, g's sub-query
// mask, returning its slot, -1 if it was not admitted.
func (s *Store) put(g *query.JoinGraph, mask uint64, card float64) int32 {
	if i, ok := s.slots[string(s.keyBuf)]; ok {
		s.cards[i] = card
		return i
	}
	if len(s.cards) >= Cap {
		return -1
	}
	s.slots[string(s.keyBuf)] = int32(len(s.cards))
	s.cards = append(s.cards, card)
	s.hashes[g.KeyHash(mask)] = struct{}{}
	return int32(len(s.cards) - 1)
}

// Truth returns the stored truth of the sub-query key.
func (s *Store) Truth(key string) (float64, bool) {
	s.Lock()
	defer s.Unlock()
	i, ok := s.slots[key]
	if !ok {
		return 0, false
	}
	return s.cards[i], true
}

// Len reports how many sub-query truths the store holds.
func (s *Store) Len() int {
	s.Lock()
	defer s.Unlock()
	return len(s.slots)
}

// Reset empties the store and starts a new generation, returning how
// many keys were dropped.
func (s *Store) Reset() int {
	s.Lock()
	defer s.Unlock()
	n := len(s.slots)
	s.slots = make(map[string]int32)
	s.hashes = make(map[uint64]struct{})
	s.cards = s.cards[:0]
	s.gen++
	return n
}

// Overlay answers a sub-query's stored truth where the store holds it
// and its base's estimate elsewhere, clamped (metrics.ClampCard).
type Overlay struct {
	Base  opt.CardEstimator
	Store *Store
}

// Estimate implements opt.CardEstimator.
func (o *Overlay) Estimate(q *query.Query) float64 {
	if c, ok := o.Store.Truth(q.Key()); ok {
		return metrics.ClampCard(c)
	}
	return metrics.ClampCard(o.Base.Estimate(q))
}

// EstimateGraph implements opt.GraphEstimator: the base answers the
// graph (opt.EstimateGraph), then, in one hold of the store's lock, each
// mask whose key hash is in the store's set has its key rendered and
// takes its truth if the store holds that key.
func (o *Overlay) EstimateGraph(ctx context.Context, g *query.JoinGraph, cards []float64) error {
	if err := opt.EstimateGraph(ctx, o.Base, g, cards); err != nil {
		return err
	}
	s := o.Store
	s.Lock()
	defer s.Unlock()
	s.hashBuf = slices.Grow(s.hashBuf[:0], len(cards))[:len(cards)]
	g.KeyHashes(s.hashBuf)
	for m, c := range cards {
		if _, ok := s.hashes[s.hashBuf[m]]; ok {
			s.keyBuf = g.AppendKey(s.keyBuf[:0], uint64(m))
			if i, ok := s.slots[string(s.keyBuf)]; ok {
				c = s.cards[i]
			}
		}
		cards[m] = metrics.ClampCard(c)
	}
	return nil
}
