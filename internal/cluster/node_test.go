package cluster

import (
	"fmt"
	"testing"
	"time"

	"spidercache/internal/kvserver"
	"spidercache/internal/leakcheck"
)

// startTestNode boots a daemon with fast gossip so membership converges
// within test-friendly deadlines.
func startTestNode(t *testing.T, seeds ...string) *Node {
	t.Helper()
	cfg := kvserver.DefaultConfig()
	cfg.Capacity = 1 << 12
	cfg.PoolSize = 2
	cfg.Timeout = 2 * time.Second
	cfg.Retries = 2
	n, err := StartNode(NodeOptions{
		Listen:      "127.0.0.1:0",
		Seeds:       seeds,
		Replicas:    2,
		Store:       cfg,
		GossipEvery: 25 * time.Millisecond,
		DeadAfter:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		//lint:ignore errcheck test cleanup
		n.Close()
	})
	return n
}

// waitMembers polls until every node's member list has exactly want
// entries, failing the test at the deadline.
func waitMembers(t *testing.T, want int, nodes ...*Node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		converged := true
		for _, n := range nodes {
			if len(n.Members()) != want {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			lists := make([][]string, len(nodes))
			for i, n := range nodes {
				lists[i] = n.Members()
			}
			t.Fatalf("membership did not converge to %d nodes: %v", want, lists)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// testClusterClient dials the cluster through one seed with discovery on.
func testClusterClient(t *testing.T, seed string) *Client {
	t.Helper()
	c, err := New(
		WithSeeds(seed),
		WithReplicas(2),
		WithPoolSize(2),
		WithDial(kvserver.DialOptions{DialTimeout: 2 * time.Second, ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second}),
		WithRetry(kvserver.RetryOptions{Attempts: 2}),
		WithBreaker(kvserver.BreakerOptions{}),
		WithDiscovery(25*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		//lint:ignore errcheck test cleanup
		c.Close()
	})
	return c
}

func TestNodeGossipMembershipConverges(t *testing.T) {
	leakcheck.Check(t)
	n1 := startTestNode(t)
	n2 := startTestNode(t, n1.Addr())
	n3 := startTestNode(t, n1.Addr()) // joins via n1; must still learn n2
	waitMembers(t, 3, n1, n2, n3)

	// A discovery client seeded with only n1 learns the full topology.
	c := testClusterClient(t, n1.Addr())
	deadline := time.Now().Add(10 * time.Second)
	for len(c.Nodes()) != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("client discovered %v, want 3 nodes", c.Nodes())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNodeAndClientRingsAgree pins placement to one ring size: a daemon
// and a client built by New must route every id to the same owners, or
// writes replicate to nodes the client never reads from.
func TestNodeAndClientRingsAgree(t *testing.T) {
	leakcheck.Check(t)
	n1 := startTestNode(t)
	n2 := startTestNode(t, n1.Addr())
	n3 := startTestNode(t, n1.Addr())
	waitMembers(t, 3, n1, n2, n3)

	c, err := New(WithSeeds(n1.Addr(), n2.Addr(), n3.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for id := 0; id < 10000; id++ {
		want := fmt.Sprint(c.Ring().Owners(id, 2))
		for _, n := range []*Node{n1, n2, n3} {
			if got := fmt.Sprint(n.Ring().Owners(id, 2)); got != want {
				t.Fatalf("id %d: node %s places on %s, client on %s", id, n.Addr(), got, want)
			}
		}
	}
}

func TestReplicatedSetReadableFromEveryOwner(t *testing.T) {
	leakcheck.Check(t)
	n1 := startTestNode(t)
	n2 := startTestNode(t, n1.Addr())
	n3 := startTestNode(t, n1.Addr())
	waitMembers(t, 3, n1, n2, n3)

	byAddr := map[string]*Node{n1.Addr(): n1, n2.Addr(): n2, n3.Addr(): n3}
	c := testClusterClient(t, n1.Addr())

	for id := 0; id < 64; id++ {
		payload := []byte(fmt.Sprintf("v%d", id))
		if err := c.Set(id, payload); err != nil {
			t.Fatalf("Set(%d): %v", id, err)
		}
		owners := n1.Ring().Owners(id, 2)
		if len(owners) != 2 {
			t.Fatalf("Owners(%d) = %v, want 2", id, owners)
		}
		// The STORED reply means the fan-out already happened: the value
		// must be on every owner's local store right now, no polling.
		for _, owner := range owners {
			node, ok := byAddr[owner]
			if !ok {
				t.Fatalf("owner %q is not a known node", owner)
			}
			if _, ok := node.Server().Peek(key(id)); !ok {
				t.Fatalf("key %d missing from owner %s immediately after STORED", id, owner)
			}
		}
	}
}

func TestJoinMigrationKeepsEveryKeyReadable(t *testing.T) {
	leakcheck.Check(t)
	const keys = 200
	n1 := startTestNode(t)
	n2 := startTestNode(t, n1.Addr())
	waitMembers(t, 2, n1, n2)

	c := testClusterClient(t, n1.Addr())
	payload := []byte("migrate-me")
	for id := 0; id < keys; id++ {
		if err := c.Set(id, payload); err != nil {
			t.Fatalf("Set(%d): %v", id, err)
		}
	}

	// readAll asserts every key is readable — no NOT_FOUND window allowed.
	readAll := func(phase string) {
		for id := 0; id < keys; id++ {
			v, found, err := c.Get(id)
			if err != nil {
				t.Fatalf("%s: Get(%d) errored: %v", phase, id, err)
			}
			if !found {
				t.Fatalf("%s: Get(%d) returned NOT_FOUND — migration opened a miss window", phase, id)
			}
			if string(v) != string(payload) {
				t.Fatalf("%s: Get(%d) = %q", phase, id, v)
			}
		}
	}
	readAll("before join")

	// Third node joins; keep reading the whole keyspace while gossip,
	// client discovery and the rebalance all race the reads.
	n3 := startTestNode(t, n1.Addr())
	deadline := time.Now().Add(10 * time.Second)
	for {
		readAll("during join")
		if len(n1.Members()) == 3 && len(n2.Members()) == 3 && len(n3.Members()) == 3 && len(c.Nodes()) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not converge: %v %v %v / client %v",
				n1.Members(), n2.Members(), n3.Members(), c.Nodes())
		}
	}
	// Let at least one full rebalance land, then verify the new owner set
	// actually serves every key (reads keep passing after the old copies
	// would stop mattering).
	time.Sleep(100 * time.Millisecond)
	readAll("after join")
}

func TestNodeDeathExpelledAndKeysSurvive(t *testing.T) {
	leakcheck.Check(t)
	const keys = 200
	n1 := startTestNode(t)
	n2 := startTestNode(t, n1.Addr())
	n3 := startTestNode(t, n1.Addr())
	waitMembers(t, 3, n1, n2, n3)

	c := testClusterClient(t, n1.Addr())
	payload := []byte("survive-me")
	for id := 0; id < keys; id++ {
		if err := c.Set(id, payload); err != nil {
			t.Fatalf("Set(%d): %v", id, err)
		}
	}

	// Kill one node. Replicas=2 means every key has a surviving owner.
	if err := n3.Close(); err != nil {
		t.Fatalf("closing n3: %v", err)
	}
	waitMembers(t, 2, n1, n2)

	deadline := time.Now().Add(10 * time.Second)
	for len(c.Nodes()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("client still routes to %v after node death", c.Nodes())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for id := 0; id < keys; id++ {
		v, found, err := c.Get(id)
		if err != nil {
			t.Fatalf("Get(%d) after node death errored: %v", id, err)
		}
		if !found || string(v) != string(payload) {
			t.Fatalf("Get(%d) after node death = %q, found=%v — replication lost the key", id, v, found)
		}
	}
}
