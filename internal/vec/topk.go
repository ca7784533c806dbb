package vec

import "sort"

// Neighbor is a point id paired with its distance to some query.
type Neighbor struct {
	ID   int
	Dist float64
}

// TopK maintains the k smallest-distance neighbors seen so far using a
// bounded max-heap. The zero value is not usable; construct with NewTopK.
type TopK struct {
	k    int
	heap []Neighbor // max-heap on Dist
}

// NewTopK returns a collector for the k nearest neighbors.
func NewTopK(k int) *TopK { return NewTopKOf(k, k) }

// NewTopKOf returns a collector for the k nearest neighbors that reserves
// room for min(k, n) of them, n being how many the caller expects to offer:
// a k beyond what there is to collect costs no memory. Offers past the
// reservation grow it as append does.
func NewTopKOf(k, n int) *TopK {
	if k <= 0 {
		panic("vec: TopK requires k > 0")
	}
	return &TopK{k: k, heap: make([]Neighbor, 0, min(k, n))}
}

// Len returns the number of neighbors currently held (≤ k).
func (t *TopK) Len() int { return len(t.heap) }

// Worst returns the largest distance currently held, or +Inf semantics via
// ok=false when fewer than k neighbors have been seen.
func (t *TopK) Worst() (d float64, ok bool) {
	if len(t.heap) < t.k {
		return 0, false
	}
	return t.heap[0].Dist, true
}

// Push offers a neighbor. It is kept only if fewer than k neighbors are held
// or its distance beats the current worst. Returns true if kept.
func (t *TopK) Push(id int, dist float64) bool {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, Neighbor{ID: id, Dist: dist})
		t.up(len(t.heap) - 1)
		return true
	}
	if dist >= t.heap[0].Dist {
		return false
	}
	t.heap[0] = Neighbor{ID: id, Dist: dist}
	t.down(0)
	return true
}

// Results returns the collected neighbors sorted by ascending distance
// (ties broken by id). The collector remains valid afterwards.
func (t *TopK) Results() []Neighbor {
	out := make([]Neighbor, len(t.heap))
	copy(out, t.heap)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.heap[parent].Dist >= t.heap[i].Dist {
			break
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *TopK) down(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && t.heap[l].Dist > t.heap[largest].Dist {
			largest = l
		}
		if r < n && t.heap[r].Dist > t.heap[largest].Dist {
			largest = r
		}
		if largest == i {
			return
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}
