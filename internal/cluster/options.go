package cluster

import (
	"fmt"
	"time"

	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
)

// Option configures a cluster client built with New. Options mirror the
// trainer's TrainWith pattern: each is a small function over the settings
// struct, they compose left to right, and invalid combinations surface as
// a single error from New rather than a panic mid-construction.
type Option func(*clientSettings)

// clientSettings is the accumulator New folds Options into.
type clientSettings struct {
	seeds         []string
	discoverEvery time.Duration
	opts          clientOptions
	err           error
}

func (s *clientSettings) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// WithSeeds sets the initial node addresses. At least one seed is
// required; with discovery enabled the rest of the topology is learned
// from the seeds' gossip, so one live seed is enough to find the cluster.
func WithSeeds(addrs ...string) Option {
	return func(s *clientSettings) {
		if len(addrs) == 0 {
			s.fail(fmt.Errorf("cluster: WithSeeds needs at least one address"))
			return
		}
		s.seeds = append([]string(nil), addrs...)
	}
}

// WithReplicas sets how many distinct ring owners serve each key — the
// failover width and, against spiderkv daemons, the replication factor
// the client expects to read through (default 2).
func WithReplicas(n int) Option {
	return func(s *clientSettings) {
		if n < 1 {
			s.fail(fmt.Errorf("cluster: WithReplicas needs n >= 1, got %d", n))
			return
		}
		s.opts.Replicas = n
	}
}

// WithBreaker sets the per-node circuit breaker template. Each node gets
// its own breaker instance cloned from it.
func WithBreaker(b kvserver.BreakerOptions) Option {
	return func(s *clientSettings) { s.opts.Breaker = &b }
}

// WithRetry sets the per-node retry policy (see kvserver.RetryOptions).
func WithRetry(r kvserver.RetryOptions) Option {
	return func(s *clientSettings) { s.opts.Retry = r }
}

// WithDiscovery enables gossip-driven membership: the client polls the
// cluster's NODES verb every interval and adds/removes nodes as the
// daemons' member lists change. Without this option the node set is
// static: the seeds are the nodes.
func WithDiscovery(every time.Duration) Option {
	return func(s *clientSettings) {
		if every <= 0 {
			s.fail(fmt.Errorf("cluster: WithDiscovery needs a positive interval, got %v", every))
			return
		}
		s.discoverEvery = every
	}
}

// WithPoolSize sets the per-node connection pool size (default 2).
func WithPoolSize(n int) Option {
	return func(s *clientSettings) {
		if n < 1 {
			s.fail(fmt.Errorf("cluster: WithPoolSize needs n >= 1, got %d", n))
			return
		}
		s.opts.PoolSize = n
	}
}

// WithDial sets dial/read/write deadlines for every pooled connection.
func WithDial(d kvserver.DialOptions) Option {
	return func(s *clientSettings) { s.opts.Dial = d }
}

// WithMetrics routes the client's (and its pools') telemetry into reg.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(s *clientSettings) { s.opts.Registry = reg }
}

// New builds a cluster client from functional options. The minimal call is
//
//	c, err := cluster.New(cluster.WithSeeds("host:7461"))
//
// which routes over a static one-node list; add WithDiscovery to track
// live membership, WithReplicas / WithBreaker / WithRetry to tune placement
// and resilience. Construction never dials.
func New(opts ...Option) (*Client, error) {
	var s clientSettings
	for _, opt := range opts {
		opt(&s)
	}
	if s.err != nil {
		return nil, s.err
	}
	if len(s.seeds) == 0 {
		return nil, fmt.Errorf("cluster: New requires WithSeeds")
	}
	return newClient(s.seeds, s.opts, s.discoverEvery)
}
