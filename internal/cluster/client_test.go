package cluster

import (
	"errors"
	"testing"
	"time"

	"spidercache/internal/kvserver"
	"spidercache/internal/leakcheck"
	"spidercache/internal/telemetry"
)

func startNode(t *testing.T) *kvserver.Server {
	t.Helper()
	srv, err := kvserver.Serve("127.0.0.1:0", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		//lint:ignore errcheck test cleanup
		srv.Close()
	})
	return srv
}

// testClient builds a static client over seeds with one connection per
// node, short dials and breakers that stay open once tripped.
func testClient(t *testing.T, reg *telemetry.Registry, seeds ...string) *Client {
	t.Helper()
	c, err := New(
		WithSeeds(seeds...),
		WithPoolSize(1),
		WithDial(kvserver.DialOptions{DialTimeout: 200 * time.Millisecond}),
		WithBreaker(kvserver.BreakerOptions{
			Window:           8,
			FailureThreshold: 0.5,
			MinSamples:       2,
			OpenFor:          time.Minute, // stays open for the whole test
		}),
		WithReplicas(2),
		WithMetrics(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClientBasicOps(t *testing.T) {
	leakcheck.Check(t)
	a, b := startNode(t), startNode(t)
	c := testClient(t, nil, a.Addr(), b.Addr())
	defer c.Close()

	for id := 0; id < 64; id++ {
		payload := []byte{byte(id), byte(id >> 8), 0xCC}
		if err := c.Set(id, payload); err != nil {
			t.Fatalf("Set(%d): %v", id, err)
		}
		got, found, err := c.Get(id)
		if err != nil || !found {
			t.Fatalf("Get(%d): found=%v err=%v", id, found, err)
		}
		if len(got) != 3 || got[0] != byte(id) {
			t.Fatalf("Get(%d) returned wrong payload %v", id, got)
		}
	}
	if _, found, err := c.Get(100000); err != nil || found {
		t.Fatalf("Get(absent): found=%v err=%v, want clean miss", found, err)
	}

	// Keys actually spread over both nodes.
	itemsA, _, _ := a.Stats()
	itemsB, _, _ := b.Stats()
	if itemsA == 0 || itemsB == 0 {
		t.Fatalf("placement did not spread: node items %d/%d", itemsA, itemsB)
	}
	for node, h := range c.Health() {
		if h.Breaker != kvserver.BreakerClosed {
			t.Fatalf("healthy node %s reports breaker %v", node, h.Breaker)
		}
	}
}

func TestClientFailsOverAroundDeadNode(t *testing.T) {
	leakcheck.Check(t)
	a, b := startNode(t), startNode(t)
	reg := telemetry.NewRegistry()
	c := testClient(t, reg, a.Addr(), b.Addr())
	defer c.Close()

	// Seed values while both nodes are up.
	const n = 32
	for id := 0; id < n; id++ {
		if err := c.Set(id, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Kill node b. Every op must still succeed: ids owned by b fail over
	// to a (reads of b-owned values miss — the replica never had them —
	// but reads must not error).
	//lint:ignore errcheck shutting the node down is the point
	b.Close()
	for id := 0; id < n; id++ {
		if err := c.Set(id+n, []byte("w")); err != nil {
			t.Fatalf("Set(%d) with one node down: %v", id+n, err)
		}
		if _, _, err := c.Get(id + n); err != nil {
			t.Fatalf("Get(%d) with one node down: %v", id+n, err)
		}
	}

	// The dead node's breaker opened and failovers were counted.
	health := c.Health()
	if health[b.Addr()].Breaker != kvserver.BreakerOpen {
		t.Fatalf("dead node breaker = %v, want open", health[b.Addr()].Breaker)
	}
	if health[a.Addr()].Breaker != kvserver.BreakerClosed {
		t.Fatalf("live node breaker = %v, want closed", health[a.Addr()].Breaker)
	}
	if v := reg.Counter("kv_failover_total", telemetry.Labels{"result": "rerouted"}).Value(); v == 0 {
		t.Fatal("kv_failover_total{result=rerouted} = 0, want > 0")
	}
	if v := reg.Counter("kv_failover_total", telemetry.Labels{"result": "exhausted"}).Value(); v != 0 {
		t.Fatalf("kv_failover_total{result=exhausted} = %d, want 0 (one replica stayed up)", v)
	}
}

func TestClientAllNodesDown(t *testing.T) {
	leakcheck.Check(t)
	reg := telemetry.NewRegistry()
	// Ports from the TCP reserved range: nothing listens there.
	c := testClient(t, reg, "127.0.0.1:1", "127.0.0.1:2")
	defer c.Close()

	if err := c.Set(1, []byte("v")); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Set with cluster down: %v, want ErrNoNodes", err)
	}
	if _, _, err := c.Get(1); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Get with cluster down: %v, want ErrNoNodes", err)
	}
	if v := reg.Counter("kv_failover_total", telemetry.Labels{"result": "exhausted"}).Value(); v == 0 {
		t.Fatal("kv_failover_total{result=exhausted} = 0, want > 0")
	}

	// Once breakers open, ops keep failing fast (ErrNoNodes, not a hang).
	for i := 0; i < 8; i++ {
		//lint:ignore errcheck failures are the point
		c.Set(i, []byte("v"))
	}
	start := time.Now()
	if _, _, err := c.Get(2); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Get after breakers opened: %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("open-breaker Get took %v, want fast-fail", d)
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := newClient(nil, clientOptions{}, 0); err == nil {
		t.Fatal("newClient(nil) succeeded")
	}
	if _, err := newClient([]string{"n1", "n1"}, clientOptions{}, 0); err == nil {
		t.Fatal("newClient with duplicate nodes succeeded")
	}
}
