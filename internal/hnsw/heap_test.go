package hnsw

import (
	"testing"

	"spidercache/internal/xrand"
)

// swapHeap is a reference binary heap that sifts by swapping, ordered by
// less. The hole-moving heaps must leave it in the same layout after every
// operation, so equal distances pop in the same order.
type swapHeap struct {
	s    []candidate
	less func(a, b float64) bool
}

func (h *swapHeap) push(c candidate) {
	h.s = append(h.s, c)
	for i := len(h.s) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(h.s[i].dist, h.s[p].dist) {
			break
		}
		h.s[p], h.s[i] = h.s[i], h.s[p]
		i = p
	}
}

func (h *swapHeap) pop() candidate {
	top := h.s[0]
	n := len(h.s) - 1
	h.s[0] = h.s[n]
	h.s = h.s[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h.less(h.s[l].dist, h.s[m].dist) {
			m = l
		}
		if r < n && h.less(h.s[r].dist, h.s[m].dist) {
			m = r
		}
		if m == i {
			break
		}
		h.s[i], h.s[m] = h.s[m], h.s[i]
		i = m
	}
	return top
}

func TestHeapsMatchSwappingHeap(t *testing.T) {
	rng := xrand.New(1204)
	var mn minHeap
	var mx maxHeap
	refMin := swapHeap{less: func(a, b float64) bool { return a < b }}
	refMax := swapHeap{less: func(a, b float64) bool { return a > b }}
	same := func(op string, a, b []candidate) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: len %d vs reference %d", op, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: slot %d = %+v, reference %+v", op, i, a[i], b[i])
			}
		}
	}
	for step := 0; step < 20000; step++ {
		if len(mn) == 0 || rng.Intn(3) > 0 {
			// Few distinct distances, so ties are common.
			c := candidate{id: uint32(step), dist: float64(rng.Intn(8))}
			mn.push(c)
			mx.push(c)
			refMin.push(c)
			refMax.push(c)
		} else {
			if got, want := mn.pop(), refMin.pop(); got != want {
				t.Fatalf("min pop %d: %+v, reference %+v", step, got, want)
			}
			if got, want := mx.pop(), refMax.pop(); got != want {
				t.Fatalf("max pop %d: %+v, reference %+v", step, got, want)
			}
		}
		same("min", mn, refMin.s)
		same("max", mx, refMax.s)
	}
}
