package main

import (
	"time"

	"spidercache/internal/cluster"
	"spidercache/internal/hnsw"
	"spidercache/internal/policy"
	"spidercache/internal/semgraph"
)

// policyProbe wraps the policy a training run uses. Every policy.Policy
// call, and each optional reporter interface the trainer type-asserts, is
// forwarded unchanged, so a run through the probe trains exactly as one
// without it. The probe always times batches, from the first Lookup after
// the previous OnBatchEnd to the end of OnBatchEnd. With a tracer it also
// records a span per call: root spans alternate between "trainer.batch"
// and "trainer.gap" (the trainer's work between batches: evaluation,
// epoch bookkeeping), so root spans cover the whole run.
type policyProbe struct {
	inner policy.Policy
	tr    *tracer

	batchLat timing
	inBatch  bool
	batchT0  time.Time

	epoch, batch int
	root         int32 // the open root span
}

var (
	_ policy.Policy              = (*policyProbe)(nil)
	_ policy.ScoreStdReporter    = (*policyProbe)(nil)
	_ policy.RatioReporter       = (*policyProbe)(nil)
	_ policy.SearchStatsReporter = (*policyProbe)(nil)
)

// gapTrace is the trace id of the spans between batches.
const gapTrace = -1

func (p *policyProbe) start() {
	if p.tr != nil {
		p.root = p.tr.begin("trainer.gap", -1, gapTrace)
		p.tr.setContext(p.root, gapTrace)
	}
}

func (p *policyProbe) finish() {
	if p.tr != nil {
		p.tr.end(p.root)
		p.tr.setContext(-1, gapTrace)
	}
}

func (p *policyProbe) enterBatch() {
	if p.inBatch {
		return
	}
	p.inBatch = true
	p.batchT0 = time.Now()
	if p.tr != nil {
		p.tr.end(p.root)
		trace := int64(p.epoch)<<32 | int64(p.batch)
		p.root = p.tr.begin("trainer.batch", -1, trace)
		p.tr.setContext(p.root, trace)
	}
}

func (p *policyProbe) Name() string { return p.inner.Name() }

func (p *policyProbe) EpochOrder(epoch int) []int {
	p.epoch, p.batch = epoch, 0
	if p.tr == nil {
		return p.inner.EpochOrder(epoch)
	}
	start := p.tr.now()
	order := p.inner.EpochOrder(epoch)
	p.tr.leaf("policy.epoch_order", start)
	return order
}

func (p *policyProbe) Lookup(id int) policy.Lookup {
	p.enterBatch()
	if p.tr == nil {
		return p.inner.Lookup(id)
	}
	start := p.tr.now()
	lk := p.inner.Lookup(id)
	p.tr.leaf("policy.lookup", start)
	return lk
}

func (p *policyProbe) OnMiss(id, size int) {
	if p.tr == nil {
		p.inner.OnMiss(id, size)
		return
	}
	start := p.tr.now()
	p.inner.OnMiss(id, size)
	p.tr.leaf("policy.on_miss", start)
}

func (p *policyProbe) OnBatchEnd(epoch int, fb []policy.Feedback) {
	if p.tr == nil {
		p.inner.OnBatchEnd(epoch, fb)
	} else {
		trace := p.tr.ctxTrace.Load()
		id := p.tr.begin("policy.on_batch_end", p.root, trace)
		p.tr.setContext(id, trace)
		p.inner.OnBatchEnd(epoch, fb)
		p.tr.end(id)
	}
	p.batchLat.add(time.Since(p.batchT0))
	p.inBatch = false
	p.batch++
	if p.tr != nil {
		p.tr.end(p.root)
		p.root = p.tr.begin("trainer.gap", -1, gapTrace)
		p.tr.setContext(p.root, gapTrace)
	}
}

func (p *policyProbe) OnEpochEnd(epoch int, accuracy float64) {
	if p.tr == nil {
		p.inner.OnEpochEnd(epoch, accuracy)
		return
	}
	start := p.tr.now()
	p.inner.OnEpochEnd(epoch, accuracy)
	p.tr.leaf("policy.on_epoch_end", start)
}

func (p *policyProbe) BackpropWeights(fb []policy.Feedback) []float64 {
	return p.inner.BackpropWeights(fb)
}

func (p *policyProbe) HasGraphIS() bool { return p.inner.HasGraphIS() }

// The reporters answer what the trainer records when the wrapped policy
// does not implement them: zero.

func (p *policyProbe) ScoreStd() float64 {
	if r, ok := p.inner.(policy.ScoreStdReporter); ok {
		return r.ScoreStd()
	}
	return 0
}

func (p *policyProbe) ImpRatio() float64 {
	if r, ok := p.inner.(policy.RatioReporter); ok {
		return r.ImpRatio()
	}
	return 0
}

func (p *policyProbe) SearchStats() (searches, snapshotHits int64) {
	if r, ok := p.inner.(policy.SearchStatsReporter); ok {
		return r.SearchStats()
	}
	return 0, 0
}

// searcherProbe times every call into the semantic graph's ANN index. The
// graph scores a batch on the worker pool, so SearchKNN spans of one
// batch overlap.
type searcherProbe struct {
	inner semgraph.NeighborSearcher
	tr    *tracer
}

func (s *searcherProbe) Upsert(id int, vec []float64) error {
	start := s.tr.now()
	err := s.inner.Upsert(id, vec)
	s.tr.leaf("hnsw.upsert", start)
	return err
}

func (s *searcherProbe) SearchKNN(q []float64, k int) []hnsw.Result {
	start := s.tr.now()
	res := s.inner.SearchKNN(q, k)
	s.tr.leaf("hnsw.search", start)
	return res
}

func (s *searcherProbe) Len() int { return s.inner.Len() }

// remoteProbe is the trainer's RemoteCache: it forwards to a
// cluster.Client, checks that every hit carries the sample's payload size,
// and counts outcomes. The trainer calls it from one goroutine (prefetch
// is off), so the counters need no synchronisation.
type remoteProbe struct {
	inner   *cluster.Client
	payload []int
	tr      *tracer

	gets, hits, sets, errs, badLen int64
}

func (r *remoteProbe) Get(id int) ([]byte, bool, error) {
	var start int64
	if r.tr != nil {
		start = r.tr.now()
	}
	v, found, err := r.inner.Get(id)
	if r.tr != nil {
		r.tr.leaf("cluster.get", start)
	}
	r.gets++
	switch {
	case err != nil:
		r.errs++
	case found:
		r.hits++
		if len(v) != r.payload[id] {
			r.badLen++
		}
	}
	return v, found, err
}

func (r *remoteProbe) Set(id int, payload []byte) error {
	var start int64
	if r.tr != nil {
		start = r.tr.now()
	}
	err := r.inner.Set(id, payload)
	if r.tr != nil {
		r.tr.leaf("cluster.set", start)
	}
	r.sets++
	if err != nil {
		r.errs++
	}
	return err
}
