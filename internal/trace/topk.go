package trace

import (
	"sort"
	"sync"
)

// TopK is a weighted space-saving sketch (Metwally et al.): it tracks
// the heaviest keys of a stream in O(capacity) memory. When a new key
// arrives and the sketch is full, the minimum-weight entry is evicted
// and the newcomer inherits its weight as an overestimation bound —
// Entry.MaxError reports how much of an entry's weight may belong to
// evicted keys. Heavy hitters (keys whose true weight exceeds the
// stream total / capacity) are guaranteed to be present.
//
// A nil *TopK is a no-op, so profiling call sites need no guards.
type TopK struct {
	mu  sync.Mutex
	cap int
	m   map[string]*topkEntry
	// heap holds the entries of m as a binary min-heap on weight, so the
	// eviction on a miss — nearly every prefix and AS key of a sweep is
	// one — finds its victim at the root instead of scanning the map.
	heap []*topkEntry
}

type topkEntry struct {
	key    string
	weight float64
	count  int64
	errW   float64 // weight inherited from the evicted minimum
	pos    int     // index in TopK.heap
}

// Entry is one reported heavy hitter.
type Entry struct {
	Key string `json:"key"`
	// Weight is the accumulated (over)estimate; at most MaxError of it
	// may belong to previously evicted keys.
	Weight   float64 `json:"weight"`
	Count    int64   `json:"count"`
	MaxError float64 `json:"max_error,omitempty"`
}

// NewTopK creates a sketch tracking up to capacity keys (minimum 1).
func NewTopK(capacity int) *TopK {
	if capacity < 1 {
		capacity = 1
	}
	return &TopK{cap: capacity, m: make(map[string]*topkEntry, capacity), heap: make([]*topkEntry, 0, capacity)}
}

// Observe adds weight w to key. Negative weights are ignored.
func (t *TopK) Observe(key string, w float64) {
	if t == nil || w < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.m[key]; ok {
		e.weight += w
		e.count++
		t.down(e.pos)
		return
	}
	if len(t.heap) < t.cap {
		e := &topkEntry{key: key, weight: w, count: 1, pos: len(t.heap)}
		t.m[key] = e
		t.heap = append(t.heap, e)
		t.up(e.pos)
		return
	}
	// Full: the newcomer takes over the minimum-weight entry, inheriting
	// its weight (the space-saving overestimate) as its error bound.
	e := t.heap[0]
	delete(t.m, e.key)
	e.key, e.errW = key, e.weight
	e.weight += w
	e.count++
	t.m[key] = e
	t.down(0)
}

// up and down restore the heap order around the entry at i after its
// weight fell below its parent's or rose above a child's.
func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.heap[parent].weight <= t.heap[i].weight {
			return
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *TopK) down(i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(t.heap); c++ {
			if t.heap[c].weight < t.heap[least].weight {
				least = c
			}
		}
		if least == i {
			return
		}
		t.swap(i, least)
		i = least
	}
}

func (t *TopK) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.heap[i].pos, t.heap[j].pos = i, j
}

// Len returns the number of tracked keys.
func (t *TopK) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Top returns the n heaviest entries, heaviest first (ties broken by
// key for determinism). n <= 0 returns every tracked entry.
func (t *TopK) Top(n int) []Entry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Entry, 0, len(t.m))
	for _, e := range t.m {
		out = append(out, Entry{Key: e.key, Weight: e.weight, Count: e.count, MaxError: e.errW})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
