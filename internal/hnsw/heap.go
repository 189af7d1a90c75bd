package hnsw

// candidate pairs a node with its distance to the current query.
type candidate struct {
	id   uint32
	dist float64
}

// The heaps move a hole instead of swapping: the sifted candidate is held
// aside and written once at its final position. Each step makes the same
// comparisons a swapping heap makes, so the heap layout, and with it the
// order equal distances leave in, is that of the swapping heap.

// minHeap orders candidates by ascending distance (closest first).
type minHeap []candidate

func (h *minHeap) push(c candidate) {
	s := append(*h, c)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].dist <= c.dist {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = c
	*h = s
}

func (h *minHeap) pop() candidate {
	s := *h
	top := s[0]
	n := len(s) - 1
	c := s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small, dist := i, c.dist
		if l < n && s[l].dist < dist {
			small, dist = l, s[l].dist
		}
		if r < n && s[r].dist < dist {
			small = r
		}
		if small == i {
			break
		}
		s[i] = s[small]
		i = small
	}
	if n > 0 {
		s[i] = c
	}
	*h = s
	return top
}

// maxHeap orders candidates by descending distance (farthest first); it
// implements the bounded result set of the layer search.
type maxHeap []candidate

func (h *maxHeap) push(c candidate) {
	s := append(*h, c)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].dist >= c.dist {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = c
	*h = s
}

func (h *maxHeap) pop() candidate {
	s := *h
	top := s[0]
	n := len(s) - 1
	c := s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big, dist := i, c.dist
		if l < n && s[l].dist > dist {
			big, dist = l, s[l].dist
		}
		if r < n && s[r].dist > dist {
			big = r
		}
		if big == i {
			break
		}
		s[i] = s[big]
		i = big
	}
	if n > 0 {
		s[i] = c
	}
	*h = s
	return top
}

func (h maxHeap) top() candidate { return h[0] }
