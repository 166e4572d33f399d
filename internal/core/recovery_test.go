package core_test

import (
	"context"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/balance"
	"gridproxy/internal/ca"
	"gridproxy/internal/core"
	"gridproxy/internal/failure"
	"gridproxy/internal/metrics"
	"gridproxy/internal/monitor"
	"gridproxy/internal/node"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/proto"
	"gridproxy/internal/transport"
	"gridproxy/internal/wire"
)

// fastLifecycle keeps redial tests snappy: a small backoff window so a
// healed peer comes back within a test's wait window, heartbeats off so
// probe traffic does not race assertions.
func fastLifecycle() peerlink.Config {
	return peerlink.Config{
		BreakerMinOpen:    20 * time.Millisecond,
		BreakerMaxOpen:    200 * time.Millisecond,
		HeartbeatInterval: -1,
	}
}

// TestReconnectAfterPartition severs the WAN between two proxies with the
// failure injector, verifies the survivor evicts the peer, heals the
// link, and confirms the pinned peer is redialed and the grid
// re-established WITHOUT any operator reconnect — the recovery side of
// the paper's "recovery of system flaws" requirement.
func TestReconnectAfterPartition(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	authority, err := ca.New("recovery")
	if err != nil {
		t.Fatal(err)
	}
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := users.AddUser("admin", "admin"); err != nil {
		t.Fatal(err)
	}
	if err := users.GrantUser("admin", auth.Permission{Action: "*", Resource: "*"}); err != nil {
		t.Fatal(err)
	}

	wanBase := transport.NewMemNetwork()
	defer wanBase.Close()
	// Site A reaches the WAN through a kill switch.
	flaky := failure.New(wanBase)

	mk := func(name string, wanNet transport.Network, reg *metrics.Registry) *core.Proxy {
		cred, err := authority.IssueHost("proxy." + name)
		if err != nil {
			t.Fatal(err)
		}
		local := transport.NewMemNetwork()
		proxy, err := core.New(core.Config{
			Site:      name,
			WANAddr:   "wan." + name,
			WAN:       transport.NewTLS(wanNet, cred, authority.CertPool(), nil),
			Local:     local,
			Users:     users,
			Policy:    balance.LeastLoaded{},
			Lifecycle: fastLifecycle(),
			Metrics:   reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		agent := node.New(name+"-n0", name, local)
		proxy.AttachNode(agent)
		if err := proxy.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = proxy.Close()
			agent.Stop()
		})
		return proxy
	}

	regA := metrics.NewRegistry()
	proxyA := mk("sitea", flaky, regA)
	proxyB := mk("siteb", wanBase, nil)

	if err := proxyA.Connect(ctx, "siteb", "wan.siteb"); err != nil {
		t.Fatal(err)
	}
	if len(proxyA.Candidates()) != 2 {
		t.Fatal("initial grid incomplete")
	}
	// Partition: sever A's WAN.
	flaky.Fail()
	waitFor(t, 10*time.Second, func() bool { return len(proxyA.Peers()) == 0 })
	waitFor(t, 10*time.Second, func() bool { return len(proxyB.Peers()) == 0 })
	if got := len(proxyA.Candidates()); got != 1 {
		t.Fatalf("candidates during partition = %d", got)
	}
	// A keeps redialing its pinned peer, and the redials fail while the
	// partition lasts.
	waitFor(t, 10*time.Second, func() bool {
		return regA.Counter(metrics.PeerRedialFailures).Value() >= 1
	})

	// Heal. No reconnect call: the pinned peer must be redialed and the
	// grid restored on its own.
	flaky.Heal()
	waitFor(t, 10*time.Second, func() bool { return len(proxyA.Candidates()) == 2 })
	waitFor(t, 10*time.Second, func() bool {
		return regA.Counter(metrics.PeerReconnects).Value() >= 1 && len(proxyA.Peers()) == 1
	})
	summaries, err := proxyA.Status(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(summaries) != 2 {
		t.Fatalf("status after recovery = %+v", summaries)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never satisfied")
}

// TestNodeReportPush exercises the proxy's node-report service: an
// external agent (the gridnode daemon's protocol) pushes stats over the
// site network and they appear in the compiled summary.
func TestNodeReportPush(t *testing.T) {
	tb := newGrid(t, nil, 1)
	s := tb.Sites[0]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	conn, err := s.Local.Dial(ctx, core.NodesAddr(s.LocalAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := wire.NewWriter(conn)
	report := monitor.NodeStats{
		Node: "external-agent", CPUFreePct: 55, RAMFreeMB: 777,
		DiskFreeMB: 888, Load1: 0.5, Procs: 1, Collected: time.Now(),
	}
	if err := proto.WriteMessage(w, proto.Marshal(0, report.ToReport())); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 10*time.Second, func() bool {
		sum := s.Proxy.LocalSummary()
		return sum.Nodes == 2 // 1 attached + 1 pushed
	})
	sum := s.Proxy.LocalSummary()
	if sum.RAMFreeMB < 777 {
		t.Errorf("pushed RAM not aggregated: %+v", sum)
	}
}
