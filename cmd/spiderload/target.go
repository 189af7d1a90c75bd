package main

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"spidercache/internal/cluster"
	"spidercache/internal/faultnet"
	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
)

// target is what the load loop drives: one server through a connection
// pool, or a cluster through the ring-aware client.
type target interface {
	// preload SETs every key once (and, on an NGET run, ESETs its
	// embedding) so measurement starts warm.
	preload() error
	// issue sends window w once and fills w.res[:w.n]. An error fails
	// the whole window.
	issue(w *window) error
	// attempts is how many times the loop sends a window before its
	// failure is client-visible.
	attempts() int
	// seeds is the node list the run was pointed at.
	seeds() []string
	// health is the node set at the end of the run and how many serve.
	health() (nodes []string, serving int)
}

// workload is the key space every target serves.
type workload struct {
	keys      int
	payload   []byte
	embs      [][]float32 // per-key embeddings; nil without NGETs
	threshold float64
}

func newWorkload(o *options) *workload {
	wl := &workload{keys: o.keys, payload: make([]byte, o.valueSz), threshold: o.ngetThreshold}
	for i := range wl.payload {
		wl.payload[i] = byte('a' + i%26)
	}
	// The NGET workload needs a per-key embedding; build them up front so
	// every worker (and the preload ESETs) sees the same clustered space.
	if o.ngetMix > 0 {
		wl.embs = buildEmbeddings(o.seed, o.keys, o.embedDim, o.embedClusters)
	}
	return wl
}

func key(i int) string { return fmt.Sprintf("load:%08d", i) }

// poolTarget drives one server through a retrying connection pool. A
// window is a pipeline of GET/SET/NGETs or one MGET/MSET, and a failed
// window is re-issued whole up to -retries times.
type poolTarget struct {
	wl      *workload
	pool    *kvserver.Pool
	addr    string
	batch   bool
	retries int
	values  [][]byte // the payload once per batch slot, for MSET
}

// startPool dials the server at -addr, or starts one in-process (behind
// faultnet when a -fault-* flag is set). The returned func closes both.
func startPool(o *options, wl *workload, reg *telemetry.Registry, stdout io.Writer) (*poolTarget, func(), error) {
	addr := o.addr
	var srv *kvserver.Server
	if addr == "" {
		var err error
		sopts := o.store.ServerOptions(nil)
		if o.fault.Registry != nil {
			var ln net.Listener
			if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				return nil, nil, err
			}
			if srv, err = kvserver.ServeOn(faultnet.WrapListener(ln, o.fault), sopts); err != nil {
				ln.Close()
			}
		} else {
			srv, err = kvserver.ServeWith("127.0.0.1:0", sopts)
		}
		if err != nil {
			return nil, nil, err
		}
		addr = srv.Addr()
		fmt.Fprintf(stdout, "in-process server on %s (capacity=%d shards=%d store-mode=%s admission=%s)\n",
			addr, o.store.Capacity, srv.Shards(), o.store.StoreMode, o.store.Admission)
		if f := o.fault; f.Registry != nil {
			fmt.Fprintf(stdout, "fault injection: reset=%.3f partial=%.3f read-err=%.3f write-err=%.3f latency=%v seed=%d\n",
				f.ResetProb, f.PartialWriteProb, f.ReadErrProb, f.WriteErrProb, f.Latency, f.Seed)
		}
	}
	pool, err := kvserver.NewPool(addr, kvserver.PoolOptions{
		Size:        o.conns,
		DialOptions: o.store.Dial(),
		LazyDial:    true, // under faults the very first dial may be reset
		Retry:       kvserver.RetryOptions{Attempts: o.store.Retries, Seed: o.seed},
		Name:        "load",
		Registry:    reg,
	})
	if err != nil {
		if srv != nil {
			srv.Close()
		}
		return nil, nil, err
	}
	t := &poolTarget{wl: wl, pool: pool, addr: addr, batch: o.batch > 0, retries: o.store.Retries}
	for range o.batch {
		t.values = append(t.values, wl.payload)
	}
	return t, func() {
		pool.Close()
		if srv != nil {
			srv.Close()
		}
	}, nil
}

func (t *poolTarget) attempts() int   { return t.retries }
func (t *poolTarget) seeds() []string { return []string{t.addr} }

func (t *poolTarget) health() ([]string, int) { return []string{t.addr}, 1 }

func (t *poolTarget) issue(w *window) error {
	if t.batch {
		return t.issueBatch(w)
	}
	return t.pool.Do(func(c *kvserver.Client) error {
		p := c.Pipeline()
		for i, id := range w.ids[:w.n] {
			switch w.kinds[i] {
			case opGet:
				p.Get(key(id))
			case opNGet:
				p.NGet(key(id), t.wl.embs[id], t.wl.threshold)
			default:
				p.Set(key(id), t.wl.payload)
			}
		}
		rs, err := execAll(p)
		copy(w.res, rs)
		return err
	})
}

// issueBatch sends the window as one MGET or MSET: a batch window's
// slots share one kind.
func (t *poolTarget) issueBatch(w *window) error {
	keys := make([]string, w.n)
	for i, id := range w.ids[:w.n] {
		keys[i] = key(id)
	}
	if w.kinds[0] == opSet {
		return t.pool.MSet(keys, t.values[:w.n])
	}
	got, found, err := t.pool.MGet(keys...)
	if err != nil {
		return err
	}
	for i := range keys {
		w.res[i] = kvserver.Result{Value: got[i], Found: found[i]}
	}
	return nil
}

// preload MSETs every key in small chunks. Under fault injection a
// window's failure probability grows with the bytes it moves, so a huge
// MSET could exhaust any fixed retry budget; the budget is also widened,
// because preload is setup, not measurement. On an NGET run each chunk's
// embeddings are ESET in one pipeline, so the semantic index is warm too.
func (t *poolTarget) preload() error {
	const chunk = 64
	for lo := 0; lo < t.wl.keys; lo += chunk {
		hi := min(lo+chunk, t.wl.keys)
		keys := make([]string, 0, hi-lo)
		values := make([][]byte, 0, hi-lo)
		for id := lo; id < hi; id++ {
			keys = append(keys, key(id))
			values = append(values, t.wl.payload)
		}
		if err := retryWindow(4*t.retries, nil, func() error { return t.pool.MSet(keys, values) }); err != nil {
			return err
		}
		if t.wl.embs == nil {
			continue
		}
		err := retryWindow(4*t.retries, nil, func() error {
			return t.pool.Do(func(c *kvserver.Client) error {
				p := c.Pipeline()
				for id := lo; id < hi; id++ {
					p.ESet(key(id), t.wl.embs[id])
				}
				_, err := execAll(p)
				return err
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// metrics fetches the server's METRICS text.
func (t *poolTarget) metrics() (string, error) {
	var text string
	err := retryWindow(t.retries, nil, func() error {
		return t.pool.Do(func(c *kvserver.Client) (err error) {
			text, err = c.Metrics()
			return err
		})
	})
	return text, err
}

// execAll sends a pipeline and fails on a transport error or on the
// first per-op error.
func execAll(p *kvserver.Pipeline) ([]kvserver.Result, error) {
	rs, err := p.Exec()
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	return rs, nil
}

// retryWindow runs fn up to attempts times, counting re-issues into
// retries when it is non-nil. The generator's windows are synthetic and
// self-contained, so re-sending a failed window is always safe.
func retryWindow(attempts int, retries *int64, fn func() error) error {
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 && retries != nil {
			*retries++
		}
		if err = fn(); err == nil {
			return nil
		}
	}
	return err
}

// clusterTarget drives a ring-aware cluster.Client — against externally
// running spiderkv daemons (-cluster host:port,...), in-process daemons
// it boots itself (-nodes N), or both. A window is one GET/SET/NGET,
// because the client routes per key. It never re-issues a window:
// resilience must come from the client's per-node retries, breaker-gated
// failover and gossip discovery, which is what a run through a daemon
// kill measures.
type clusterTarget struct {
	wl      *workload
	client  *cluster.Client
	nodes   []string
	workers int
}

// startCluster boots -nodes in-process daemons, which take every store
// flag, and builds the client over them and the -cluster seeds. The
// returned func closes the client and the daemons.
func startCluster(o *options, wl *workload, reg *telemetry.Registry, stdout io.Writer) (*clusterTarget, func(), error) {
	var seeds []string
	for _, s := range strings.Split(o.clusterSeeds, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seeds = append(seeds, s)
		}
	}
	var local []*cluster.Node
	closeNodes := func() {
		for _, n := range local {
			n.Close()
		}
	}
	for i := 0; i < o.nodes; i++ {
		opts := cluster.NodeOptions{
			Listen:      "127.0.0.1:0",
			Replicas:    o.replicas,
			Store:       o.store,
			GossipEvery: 100 * time.Millisecond,
		}
		if len(local) > 0 {
			opts.Seeds = []string{local[0].Addr()}
		}
		n, err := cluster.StartNode(opts)
		if err != nil {
			closeNodes()
			return nil, nil, fmt.Errorf("start node: %w", err)
		}
		local = append(local, n)
		seeds = append(seeds, n.Addr())
	}
	if o.nodes > 0 {
		fmt.Fprintf(stdout, "booted %d in-process daemons: %s\n", o.nodes, strings.Join(seeds[len(seeds)-o.nodes:], ", "))
	}

	client, err := cluster.New(
		cluster.WithSeeds(seeds...),
		cluster.WithReplicas(o.replicas),
		cluster.WithPoolSize(o.conns),
		cluster.WithDial(o.store.Dial()),
		cluster.WithRetry(kvserver.RetryOptions{Attempts: o.store.Retries, Seed: o.seed}),
		cluster.WithBreaker(kvserver.BreakerOptions{}),
		cluster.WithDiscovery(250*time.Millisecond),
		cluster.WithMetrics(reg),
	)
	if err != nil {
		closeNodes()
		return nil, nil, err
	}
	t := &clusterTarget{wl: wl, client: client, nodes: seeds, workers: o.conns}
	return t, func() {
		client.Close()
		closeNodes()
	}, nil
}

func (t *clusterTarget) attempts() int   { return 1 }
func (t *clusterTarget) seeds() []string { return t.nodes }

func (t *clusterTarget) health() ([]string, int) {
	serving := 0
	for _, h := range t.client.Health() {
		if h.Serving {
			serving++
		}
	}
	return t.client.Nodes(), serving
}

func (t *clusterTarget) issue(w *window) (err error) {
	id, r := w.ids[0], &w.res[0]
	switch w.kinds[0] {
	case opGet:
		r.Value, r.Found, err = t.client.Get(id)
	case opNGet:
		r.Value, r.Near, r.Found, err = t.client.NGet(id, t.wl.embs[id], t.wl.threshold)
	default:
		err = t.client.Set(id, t.wl.payload)
	}
	return err
}

// preload SETs every key once through the client, fanned over one
// goroutine per connection, and fails if any key did not land. On an
// NGET run each key's embedding is ESET too, so every owner's semantic
// index is warm before measurement.
func (t *clusterTarget) preload() error {
	var wg sync.WaitGroup
	fails := make([]int, t.workers)
	per := (t.wl.keys + t.workers - 1) / t.workers
	for w := range fails {
		lo, hi := w*per, min((w+1)*per, t.wl.keys)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := lo; id < hi; id++ {
				if err := t.client.Set(id, t.wl.payload); err != nil {
					fails[w]++
				} else if t.wl.embs != nil && t.client.ESet(id, t.wl.embs[id]) != nil {
					fails[w]++
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, f := range fails {
		total += f
	}
	if total > 0 {
		return fmt.Errorf("%d keys failed", total)
	}
	return nil
}
