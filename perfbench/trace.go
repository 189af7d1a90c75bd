package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one training
// batch or one serving request window share a trace id; parent is the
// index of the enclosing span, or -1 for a root.
type span struct {
	name       string
	start, end int64 // nanoseconds since the tracer's origin
	parent     int32
	trace      int64
}

// tracer keeps every span of a traced run in memory and writes them out
// once the run ends. Spans may be recorded from several goroutines: the
// semantic graph scores a batch on the worker pool, so neighbour searches
// of one batch run in parallel.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span

	// ctxParent and ctxTrace name the span that calls made from inside a
	// layer belong to. The policy wrapper sets them; the searcher and
	// remote-cache wrappers, which the policy and the trainer call, read
	// them.
	ctxParent atomic.Int32
	ctxTrace  atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.ctxParent.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span that others may name as their parent; end closes it.
func (t *tracer) begin(name string, parent int32, trace int64) int32 {
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: start, end: -1, parent: parent, trace: trace})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// leaf records a finished span that started at start under the current
// context.
func (t *tracer) leaf(name string, start int64) {
	end := t.now()
	parent, trace := t.ctxParent.Load(), t.ctxTrace.Load()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, trace: trace})
	t.mu.Unlock()
}

func (t *tracer) setContext(parent int32, trace int64) {
	t.ctxParent.Store(parent)
	t.ctxTrace.Store(trace)
}

// snapshot returns the recorded spans; call it only after the traced work
// has stopped.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTimes is what the spans of one run say about each span name.
type layerTimes struct {
	// self is the wall time attributed to the name: for each group of
	// sibling spans with this name, the union of their intervals minus
	// the union of their children's intervals. The selves of all names
	// add up to the time covered by root spans.
	self map[string]time.Duration
	// busy is the summed duration of the name's spans; it exceeds self
	// when spans of the name ran in parallel.
	busy map[string]time.Duration
	// dur holds every span duration per name, for quantiles.
	dur map[string]*timing
}

func analyze(spans []span) layerTimes {
	type groupKey struct {
		parent int32
		name   string
	}
	kids := make(map[int32][]int32)
	groups := make(map[groupKey][]int32)
	lt := layerTimes{
		self: make(map[string]time.Duration),
		busy: make(map[string]time.Duration),
		dur:  make(map[string]*timing),
	}
	for i, s := range spans {
		groups[groupKey{s.parent, s.name}] = append(groups[groupKey{s.parent, s.name}], int32(i))
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
		d := time.Duration(s.end - s.start)
		lt.busy[s.name] += d
		if lt.dur[s.name] == nil {
			lt.dur[s.name] = &timing{}
		}
		lt.dur[s.name].add(d)
	}
	for key, members := range groups {
		var own, sub []interval
		for _, m := range members {
			own = append(own, interval{spans[m].start, spans[m].end})
			for _, k := range kids[m] {
				sub = append(sub, interval{spans[k].start, spans[k].end})
			}
		}
		lt.self[key.name] += time.Duration(unionLen(own) - unionLen(sub))
	}
	return lt
}

// add folds the analysis of another, disjoint set of spans into lt.
func (lt *layerTimes) add(o layerTimes) {
	for name, d := range o.self {
		lt.self[name] += d
	}
	for name, d := range o.busy {
		lt.busy[name] += d
	}
	for name, t := range o.dur {
		if lt.dur[name] == nil {
			lt.dur[name] = &timing{}
		}
		lt.dur[name].merge(t)
	}
}

// writeSpans writes one tab-separated line per span:
// trace, id, parent, name, start_ns, end_ns.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace\tid\tparent\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.trace, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
