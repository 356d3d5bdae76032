package nlp

// topKHeap is a bounded min-heap of Scored: the root is the worst item
// kept so far, so a stream of n candidates selects the k best in
// O(n log k) instead of a full O(n log n) sort. Ordering matches the
// ranking convention everywhere in this package: higher score first,
// score ties broken toward the lower document index.
type topKHeap struct {
	k     int
	items []Scored
}

// worse reports whether a ranks strictly below b.
func worse(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

func (h *topKHeap) push(s Scored) {
	if h.k <= 0 {
		return
	}
	if len(h.items) < h.k {
		h.items = append(h.items, s)
		h.up(len(h.items) - 1)
		return
	}
	if worse(s, h.items[0]) {
		return
	}
	h.items[0] = s
	h.down(0)
}

func (h *topKHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *topKHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && worse(h.items[l], h.items[worst]) {
			worst = l
		}
		if r < n && worse(h.items[r], h.items[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

// sorted heap-sorts the items in place into descending rank order (best
// first) and returns them. The heap is consumed.
func (h *topKHeap) sorted() []Scored {
	items := h.items
	for n := len(items) - 1; n > 0; n-- {
		items[0], items[n] = items[n], items[0]
		h.items = items[:n]
		h.down(0)
	}
	h.items = nil
	return items
}

// TopKScored selects the k highest-scoring items (ties toward the lower
// Doc index), equivalent to stable-sorting an index-ordered candidate
// list by descending score and truncating to k, but in O(n log k).
// k <= 0 or k >= len(items) returns the full ranking.
func TopKScored(items []Scored, k int) []Scored {
	if k <= 0 || k > len(items) {
		k = len(items)
	}
	h := topKHeap{k: k, items: make([]Scored, 0, k)}
	for _, s := range items {
		h.push(s)
	}
	return h.sorted()
}
