package cluster

import (
	"testing"
	"time"

	"spidercache/internal/kvserver"
	"spidercache/internal/leakcheck"
)

func TestNewOptionValidation(t *testing.T) {
	leakcheck.Check(t)
	cases := map[string][]Option{
		"no seeds":           {},
		"empty WithSeeds":    {WithSeeds()},
		"bad replicas":       {WithSeeds("x:1"), WithReplicas(0)},
		"bad discovery":      {WithSeeds("x:1"), WithDiscovery(0)},
		"bad pool size":      {WithSeeds("x:1"), WithPoolSize(0)},
		"duplicate seeds":    {WithSeeds("x:1", "x:1")},
		"first error sticks": {WithReplicas(-1), WithSeeds()},
	}
	for name, opts := range cases {
		if c, err := New(opts...); err == nil {
			//lint:ignore errcheck the test is about construction, not teardown
			c.Close()
			t.Fatalf("New(%s) did not error", name)
		}
	}
}

func TestNewAppliesOptions(t *testing.T) {
	leakcheck.Check(t)
	srv := startNode(t)
	c, err := New(
		WithSeeds(srv.Addr()),
		WithReplicas(3),
		WithPoolSize(5),
		WithDial(kvserver.DialOptions{DialTimeout: time.Second}),
		WithRetry(kvserver.RetryOptions{Attempts: 4}),
		WithBreaker(kvserver.BreakerOptions{Window: 16}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.opts.Replicas != 3 || c.opts.PoolSize != 5 ||
		c.opts.Dial.DialTimeout != time.Second || c.opts.Retry.Attempts != 4 ||
		c.opts.Breaker.Window != 16 {
		t.Fatalf("options not applied: %+v", c.opts)
	}
}
