// Package hnsw is a from-scratch implementation of Hierarchical Navigable
// Small World graphs (Malkov & Yashunin, 2018), the approximate
// nearest-neighbour index the paper uses (via hnswlib) to evaluate sample
// embeddings.
//
// The index supports dynamic insertion and in-place vector updates — the two
// operations SpiderCache's per-batch IS loop performs — plus k-NN search
// with a tunable ef parameter. Distances are Euclidean (the paper's Eq. 1).
// The index is safe for concurrent use: an RWMutex gives Upsert exclusive
// access while any number of searches proceed in parallel under the shared
// lock, matching hnswlib's concurrent read / exclusive write model the paper
// relies on.
//
// The implementation follows the paper's Algorithms 1-5: multi-layer
// proximity graphs with exponentially decaying layer population, greedy
// descent from the entry point, best-first beam search per layer
// (efConstruction / efSearch), and the diversity-preserving neighbour
// selection heuristic.
package hnsw

import (
	"fmt"
	"math"
	"sync"

	"spidercache/internal/xrand"
)

// Config tunes index construction and search.
type Config struct {
	M              int // max neighbours per node on upper layers (layer 0 gets 2*M)
	EfConstruction int // beam width during insertion
	EfSearch       int // default beam width during search
	// UpdateEps is the Euclidean movement below which an Upsert of an
	// existing point only replaces its stored vector without repairing
	// graph links. Embedding drift between consecutive scoring passes is
	// tiny once training stabilises, so this avoids paying the full
	// re-link cost every batch; 0 always re-links.
	UpdateEps float64
	Seed      uint64
}

// DefaultConfig returns values that give high recall on the embedding
// workloads in this repository (small dimensionality, 10^3..10^5 points).
// UpdateEps is calibrated for unit-normalised embeddings (distances in
// [0, 2]).
func DefaultConfig() Config {
	return Config{M: 12, EfConstruction: 120, EfSearch: 64, UpdateEps: 0.02, Seed: 1}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.M < 2:
		return fmt.Errorf("hnsw: M must be >= 2, got %d", c.M)
	case c.EfConstruction < c.M:
		return fmt.Errorf("hnsw: EfConstruction %d < M %d", c.EfConstruction, c.M)
	case c.EfSearch < 1:
		return fmt.Errorf("hnsw: EfSearch must be >= 1, got %d", c.EfSearch)
	}
	return nil
}

// node is one indexed point. Its vector and its layer-0 neighbour list live
// in the index's slabs at offsets derived from its slot; only the upper
// layers, which hold about one point in M, keep per-node slices.
type node struct {
	id int // external ID
	// upper[l-1] holds neighbour slot indexes at layer l, 1 <= l <= level.
	upper [][]uint32
}

// level is the top layer the node occupies.
func (n *node) level() int { return len(n.upper) }

// Index is an HNSW approximate nearest-neighbour index. It is safe for
// concurrent use: Upsert takes an exclusive lock, searches take a shared
// lock, so any number of SearchKNN calls proceed in parallel and serialise
// only against mutations. Search working memory comes from a scratch pool,
// not the index, so concurrent searches never contend on shared state.
type Index struct {
	mu  sync.RWMutex
	cfg Config
	ml  float64 // level normalisation factor 1/ln(M)
	rng *xrand.Rand
	// dims is the vector dimensionality, fixed by the first insert (0 while
	// the index is empty).
	dims int
	// vecs holds every vector back to back: slot s owns
	// vecs[s*dims : (s+1)*dims].
	vecs []float64
	// links0 holds every layer-0 neighbour list in rows of stride0 entries.
	// Slot s's row starts at s*stride0 with the list's length, followed by
	// up to 2*M neighbour slots and one spare entry for the append linkBack
	// makes before it prunes an overflowing list.
	links0  []uint32
	stride0 int
	nodes   []node
	byID    map[int]uint32 // external ID -> slot
	entry   int            // slot of entry point, -1 if empty
	maxLv   int
}

// scratch is the working set of one search or insert operation: visit marks
// (one epoch counter per slot, bumped per searchLayer call so the array
// never needs clearing between calls), the layer search's heaps, and the
// buffers its callers fill. All of it is reused across operations.
type scratch struct {
	visited  []uint32
	epoch    uint32
	frontier minHeap
	results  maxHeap
	ids      []uint32    // unvisited neighbours awaiting their distances
	dists    []float64   // distances of ids, or of a list being pruned
	out      []candidate // searchLayer's result, ascending by distance
	sel      []candidate // neighbours selected for the point being linked
	prune    []candidate // an overflowing list in linkBack
	pruneSel []candidate // the neighbours linkBack keeps of it
	selIDs   []uint32    // slots of a selection in progress
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch sized for the current node count.
func (ix *Index) getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	if len(s.visited) < len(ix.nodes)+1 {
		s.visited = make([]uint32, 2*len(ix.nodes)+16)
		s.epoch = 0
	}
	return s
}

func putScratch(s *scratch) { scratchPool.Put(s) }

// nextEpoch advances the scratch epoch, clearing the array on wrap-around.
func (s *scratch) nextEpoch() uint32 {
	s.epoch++
	if s.epoch == 0 {
		clear(s.visited)
		s.epoch = 1
	}
	return s.epoch
}

// resize returns buf with length n, reallocating only when it is too small.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, 2*n)
	}
	return buf[:n]
}

// New creates an empty index.
func New(cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Index{
		cfg:     cfg,
		ml:      1 / math.Log(float64(cfg.M)),
		rng:     xrand.New(cfg.Seed),
		stride0: 2*cfg.M + 2,
		byID:    make(map[int]uint32),
		entry:   -1,
	}, nil
}

// Len returns the number of indexed points.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.nodes)
}

// Dim returns the dimensionality of the indexed vectors (0 when empty).
func (ix *Index) Dim() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.dims
}

// Contains reports whether id has been indexed.
func (ix *Index) Contains(id int) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.byID[id]
	return ok
}

// Vector returns a copy of the stored vector for id, or nil when unknown.
func (ix *Index) Vector(id int) []float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	slot, ok := ix.byID[id]
	if !ok {
		return nil
	}
	out := make([]float64, ix.dims)
	copy(out, ix.vec(slot))
	return out
}

// vec is slot's stored vector, a window of the vector slab.
func (ix *Index) vec(slot uint32) []float64 {
	o := int(slot) * ix.dims
	return ix.vecs[o : o+ix.dims]
}

// row0 is slot's layer-0 row: the list length, the list, and spare room.
func (ix *Index) row0(slot uint32) []uint32 {
	o := int(slot) * ix.stride0
	return ix.links0[o : o+ix.stride0]
}

// neighbours returns slot's neighbour list at layer l (nil above its level).
func (ix *Index) neighbours(slot uint32, l int) []uint32 {
	if l == 0 {
		row := ix.row0(slot)
		return row[1 : 1+row[0]]
	}
	if up := ix.nodes[slot].upper; l <= len(up) {
		return up[l-1]
	}
	return nil
}

// setLinks replaces slot's neighbour list at layer l with the candidates'
// slots, in order.
func (ix *Index) setLinks(slot uint32, l int, cands []candidate) {
	if l == 0 {
		row := ix.row0(slot)
		row[0] = uint32(len(cands))
		for i, c := range cands {
			row[1+i] = c.id
		}
		return
	}
	links := ix.nodes[slot].upper[l-1][:0]
	for _, c := range cands {
		links = append(links, c.id)
	}
	ix.nodes[slot].upper[l-1] = links
}

func sqDist(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// distances sets out[i] = sqDist(vec(ids[i]), q) for every i. It walks
// several stored vectors per pass over q, each with its own accumulator, so
// the adds of different sums overlap instead of waiting on one another.
// Each sum still adds its terms in sqDist's order, so every result is
// bit-identical to sqDist's.
func (ix *Index) distances(q []float64, ids []uint32, out []float64) {
	d := ix.dims
	q = q[:d]
	vecs := ix.vecs
	out = out[:len(ids)]
	i := 0
	for ; i+4 <= len(ids); i += 4 {
		a := vecs[int(ids[i])*d:][:d]
		b := vecs[int(ids[i+1])*d:][:d]
		c := vecs[int(ids[i+2])*d:][:d]
		e := vecs[int(ids[i+3])*d:][:d]
		var sa, sb, sc, se float64
		for j, qv := range q {
			da := a[j] - qv
			db := b[j] - qv
			dc := c[j] - qv
			de := e[j] - qv
			sa += da * da
			sb += db * db
			sc += dc * dc
			se += de * de
		}
		out[i], out[i+1], out[i+2], out[i+3] = sa, sb, sc, se
	}
	if i+2 <= len(ids) {
		a := vecs[int(ids[i])*d:][:d]
		b := vecs[int(ids[i+1])*d:][:d]
		var sa, sb float64
		for j, qv := range q {
			da := a[j] - qv
			db := b[j] - qv
			sa += da * da
			sb += db * db
		}
		out[i], out[i+1] = sa, sb
		i += 2
	}
	if i < len(ids) {
		out[i] = sqDist(vecs[int(ids[i])*d:][:d], q)
	}
}

// Upsert inserts the vector under id, or replaces the stored vector when id
// is already indexed (re-linking the point at every layer it occupies). This
// is the per-batch "ANN_index.update" operation of the paper's Algorithm 1.
// Upsert takes the exclusive lock and may run concurrently with SearchKNN
// callers, which serialise against it.
func (ix *Index) Upsert(id int, vec []float64) error {
	if len(vec) == 0 {
		return fmt.Errorf("hnsw: empty vector for id %d", id)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if d := ix.dims; d != 0 && len(vec) != d {
		return fmt.Errorf("hnsw: vector dim %d != index dim %d", len(vec), d)
	}
	if slot, ok := ix.byID[id]; ok {
		ix.updateVector(slot, vec)
		return nil
	}
	ix.insert(id, vec)
	return nil
}

func (ix *Index) insert(id int, vec []float64) {
	level := ix.randomLevel()
	slot := uint32(len(ix.nodes))
	ix.dims = len(vec)
	ix.vecs = append(ix.vecs, vec...)
	ix.links0 = append(ix.links0, make([]uint32, ix.stride0)...)
	n := node{id: id}
	if level > 0 {
		n.upper = make([][]uint32, level)
	}
	ix.nodes = append(ix.nodes, n)
	ix.byID[id] = slot

	if ix.entry < 0 {
		ix.entry = int(slot)
		ix.maxLv = level
		return
	}

	sc := ix.getScratch()
	defer putScratch(sc)
	ep := uint32(ix.entry)
	epDist := sqDist(ix.vec(ep), vec)
	// Greedy descent through layers above the new node's level.
	for l := ix.maxLv; l > level; l-- {
		ep, epDist = ix.greedyStep(sc, ep, epDist, vec, l)
	}
	// Beam search + heuristic linking on each layer from min(level, maxLv)
	// down to 0.
	for l := min(level, ix.maxLv); l >= 0; l-- {
		cands := ix.searchLayer(sc, ep, epDist, vec, ix.cfg.EfConstruction, l)
		ix.link(sc, slot, l, cands)
		if len(cands) > 0 {
			ep, epDist = cands[0].id, cands[0].dist
		}
	}
	if level > ix.maxLv {
		ix.maxLv = level
		ix.entry = int(slot)
	}
}

// updateVector replaces the stored vector and repairs the point's outgoing
// links by re-running neighbour selection at each of its layers, mirroring
// hnswlib's update_point repair. Movements below UpdateEps skip the repair.
func (ix *Index) updateVector(slot uint32, vec []float64) {
	v := ix.vec(slot)
	if eps := ix.cfg.UpdateEps; eps > 0 && sqDist(v, vec) < eps*eps {
		copy(v, vec)
		return
	}
	copy(v, vec)
	if len(ix.nodes) == 1 {
		return
	}
	sc := ix.getScratch()
	defer putScratch(sc)
	level := ix.nodes[slot].level()
	ep := uint32(ix.entry)
	epDist := sqDist(ix.vec(ep), v)
	for l := ix.maxLv; l > level; l-- {
		ep, epDist = ix.greedyStep(sc, ep, epDist, v, l)
	}
	for l := min(level, ix.maxLv); l >= 0; l-- {
		cands := ix.searchLayer(sc, ep, epDist, v, ix.cfg.EfConstruction, l)
		// Drop self-references before selecting.
		filtered := cands[:0]
		for _, c := range cands {
			if c.id != slot {
				filtered = append(filtered, c)
			}
		}
		ix.link(sc, slot, l, filtered)
		if len(filtered) > 0 {
			ep, epDist = filtered[0].id, filtered[0].dist
		}
	}
}

// link sets slot's layer-l neighbours to the heuristic's pick from cands
// (sorted ascending) and adds slot to each picked neighbour's list.
func (ix *Index) link(sc *scratch, slot uint32, l int, cands []candidate) {
	selected := ix.selectHeuristic(sc, cands, ix.layerCap(l), &sc.sel)
	ix.setLinks(slot, l, selected)
	for _, c := range selected {
		ix.linkBack(sc, c.id, slot, l)
	}
}

// layerCap returns the max neighbours per node at layer l.
func (ix *Index) layerCap(l int) int {
	if l == 0 {
		return 2 * ix.cfg.M
	}
	return ix.cfg.M
}

// linkBack adds src as a neighbour of dst at layer l, pruning dst's list
// with the selection heuristic when it overflows.
func (ix *Index) linkBack(sc *scratch, dst, src uint32, l int) {
	links := ix.neighbours(dst, l)
	for _, existing := range links {
		if existing == src {
			return
		}
	}
	if l == 0 {
		// A layer-0 list is at most 2*M long, so the spare entry of the
		// row always has room for this append.
		row := ix.row0(dst)
		row[1+row[0]] = src
		row[0]++
		links = row[1 : 1+row[0]]
	} else {
		up := &ix.nodes[dst].upper[l-1]
		*up = append(*up, src)
		links = *up
	}
	capL := ix.layerCap(l)
	if len(links) <= capL {
		return
	}
	sc.dists = resize(sc.dists, len(links))
	ix.distances(ix.vec(dst), links, sc.dists)
	cands := resize(sc.prune, len(links))
	for i, nb := range links {
		cands[i] = candidate{id: nb, dist: sc.dists[i]}
	}
	sc.prune = cands
	sortCandidates(cands)
	ix.setLinks(dst, l, ix.selectHeuristic(sc, cands, capL, &sc.pruneSel))
}

// greedyStep walks layer l greedily towards q, returning the local minimum.
func (ix *Index) greedyStep(sc *scratch, ep uint32, epDist float64, q []float64, l int) (uint32, float64) {
	for {
		improved := false
		links := ix.neighbours(ep, l)
		sc.dists = resize(sc.dists, len(links))
		ix.distances(q, links, sc.dists)
		for i, d := range sc.dists {
			if d < epDist {
				ep, epDist = links[i], d
				improved = true
			}
		}
		if !improved {
			return ep, epDist
		}
	}
}

// searchLayer runs best-first beam search on layer l starting from ep and
// returns up to ef candidates sorted by ascending distance. The result is
// scratch memory, valid until the next searchLayer call on sc. Visit marks
// live in the caller's scratch, so concurrent searches are independent.
func (ix *Index) searchLayer(sc *scratch, ep uint32, epDist float64, q []float64, ef int, l int) []candidate {
	epoch := sc.nextEpoch()
	visited := sc.visited
	visited[ep] = epoch

	frontier, results := sc.frontier[:0], sc.results[:0]
	frontier.push(candidate{id: ep, dist: epDist})
	results.push(candidate{id: ep, dist: epDist})

	for len(frontier) > 0 {
		cur := frontier.pop()
		if len(results) >= ef && cur.dist > results.top().dist {
			break
		}
		// Collect the unvisited neighbours, evaluate their distances as
		// one batch, then apply them in list order: the same visits and
		// heap operations as taking the neighbours one at a time.
		ids := sc.ids[:0]
		for _, nb := range ix.neighbours(cur.id, l) {
			if visited[nb] != epoch {
				visited[nb] = epoch
				ids = append(ids, nb)
			}
		}
		sc.ids = ids
		sc.dists = resize(sc.dists, len(ids))
		ix.distances(q, ids, sc.dists)
		for i, d := range sc.dists {
			if len(results) < ef || d < results.top().dist {
				frontier.push(candidate{id: ids[i], dist: d})
				results.push(candidate{id: ids[i], dist: d})
				if len(results) > ef {
					results.pop()
				}
			}
		}
	}
	sc.frontier = frontier
	// Pop the farthest candidate first into the last free position, so the
	// result comes out ascending.
	out := resize(sc.out, len(results))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = results.pop()
	}
	sc.results, sc.out = results, out
	return out
}

// selectHeuristic implements the diversity-preserving neighbour selection of
// the HNSW paper (Algorithm 4): a candidate is kept only if it is closer to
// the query than to every already-selected neighbour. cands must be sorted
// ascending by distance. When more than m candidates are offered, the
// selection is built in *buf, which keeps its grown backing array.
func (ix *Index) selectHeuristic(sc *scratch, cands []candidate, m int, buf *[]candidate) []candidate {
	if len(cands) <= m {
		return cands
	}
	selected := (*buf)[:0]
	selIDs := sc.selIDs[:0]
	var near [4]float64
	for _, c := range cands {
		if len(selected) >= m {
			break
		}
		// Compare c with the selected neighbours four at a time, checking
		// each group in selection order. A group may evaluate up to three
		// distances past the first one that rejects c, but costs about as
		// much as one distance, and every decision is the one-at-a-time
		// loop's.
		keep := true
		cv := ix.vec(c.id)
		for k := 0; keep && k < len(selIDs); k += len(near) {
			group := selIDs[k:min(k+len(near), len(selIDs))]
			ix.distances(cv, group, near[:])
			for _, d := range near[:len(group)] {
				if d < c.dist {
					keep = false
					break
				}
			}
		}
		if keep {
			selected = append(selected, c)
			selIDs = append(selIDs, c.id)
		}
	}
	sc.selIDs = selIDs
	// Backfill with nearest remaining candidates when the heuristic was too
	// aggressive (keepPrunedConnections in hnswlib terms).
	if len(selected) < m {
		for _, c := range cands {
			if len(selected) >= m {
				break
			}
			dup := false
			for _, s := range selected {
				if s.id == c.id {
					dup = true
					break
				}
			}
			if !dup {
				selected = append(selected, c)
			}
		}
	}
	*buf = selected
	return selected
}

// sortCandidates sorts an overflowing neighbour list (at most 2*M+1 long)
// by ascending distance. The insertion sort is stable, so equal distances
// keep list order.
func sortCandidates(cands []candidate) {
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i - 1
		for j >= 0 && cands[j].dist > c.dist {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = c
	}
}

// Result is one search hit.
type Result struct {
	ID   int
	Dist float64 // Euclidean distance (Eq. 1 of the paper)
}

// SearchKNN returns up to k approximate nearest neighbours of q using the
// configured EfSearch beam width.
func (ix *Index) SearchKNN(q []float64, k int) []Result {
	return ix.SearchKNNEf(q, k, ix.cfg.EfSearch)
}

// SearchKNNEf is SearchKNN with an explicit beam width ef (>= k recommended).
// Safe for concurrent use; parallel searches share only the read lock.
func (ix *Index) SearchKNNEf(q []float64, k, ef int) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.entry < 0 || k <= 0 {
		return nil
	}
	if ef < k {
		ef = k
	}
	sc := ix.getScratch()
	defer putScratch(sc)
	ep := uint32(ix.entry)
	epDist := sqDist(ix.vec(ep), q)
	for l := ix.maxLv; l > 0; l-- {
		ep, epDist = ix.greedyStep(sc, ep, epDist, q, l)
	}
	cands := ix.searchLayer(sc, ep, epDist, q, ef, 0)
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]Result, len(cands))
	for i, c := range cands {
		out[i] = Result{ID: ix.nodes[c.id].id, Dist: math.Sqrt(c.dist)}
	}
	return out
}

// randomLevel draws the node level from the exponential distribution
// floor(-ln(U) * mL) used by the HNSW paper.
func (ix *Index) randomLevel() int {
	lv := int(ix.rng.ExpFloat64() * ix.ml)
	const maxLevel = 30
	if lv > maxLevel {
		lv = maxLevel
	}
	return lv
}

// MemoryBytes estimates the resident size of the index: vectors plus link
// lists plus per-node overhead. Used by the Table 2 storage-efficiency
// experiment.
func (ix *Index) MemoryBytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var total int64
	for s := range ix.nodes {
		total += int64(ix.dims) * 8
		total += int64(ix.links0[s*ix.stride0]) * 4
		for _, l := range ix.nodes[s].upper {
			total += int64(len(l)) * 4
		}
		total += 48 // per-node overhead: id, level, list headers
	}
	return total
}
