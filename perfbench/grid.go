package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/balance"
	"gridproxy/internal/ca"
	"gridproxy/internal/core"
	"gridproxy/internal/gate"
	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/programs"
	"gridproxy/internal/ticket"
	"gridproxy/internal/transport"
)

const (
	nodesPerSite = 2
	numUsers     = 4
	// delayBudget is how many bytes the delay line keeps in flight per
	// direction of one connection: 4 MiB covers 10 ms of RTT at 400 MB/s,
	// above anything a loopback TLS tunnel reaches on a small host.
	delayBudget = 4 << 20
)

var siteNames = [2]string{"sitea", "siteb"}

func userName(i int) string     { return fmt.Sprintf("u%d", i) }
func userPassword(i int) string { return fmt.Sprintf("pw-u%d", i) }

// gridOpts says how to assemble the grid for one run.
type gridOpts struct {
	delay time.Duration // one-way WAN delay; 0 is raw loopback
	tr    *tracer       // nil for untraced runs
}

// probes are the wrappers a traced run hands to the program.
type probes struct {
	wan    ioStats
	lan    ioStats
	policy []*tracedPolicy
	ranks  *rankLog
}

// benchSite is one assembled site: a proxy over TLS/TCP for the WAN and
// label-addressed TCP for the LAN, with node agents running the demo
// programs, wired as cmd/gridproxyd wires them.
type benchSite struct {
	name  string
	reg   *metrics.Registry
	lan   transport.Network
	proxy *core.Proxy
	nodes []*node.Agent
}

// benchGrid is the two-site grid with a gateway in front of site A.
type benchGrid struct {
	sites   [2]*benchSite
	tgs     *ticket.GrantingService
	gateReg *metrics.Registry
	gateURL string
	late    *lateLog
	probes  *probes

	stopGate context.CancelFunc
	gateway  *gate.Gateway
	server   *http.Server
	served   chan struct{}
	gateRun  chan struct{}
}

// freeWANAddr picks a loopback port for a proxy's WAN listener, which
// must be known before the proxy starts because peers dial it by name.
func freeWANAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// newGrid assembles and connects the grid. Every proxy, tunnel, stage and
// gateway knob stays at its daemon default.
func newGrid(ctx context.Context, opts gridOpts) (g *benchGrid, err error) {
	authority, err := ca.New("perfbench")
	if err != nil {
		return nil, err
	}
	users, err := auth.NewStore()
	if err != nil {
		return nil, err
	}
	for i := 0; i < numUsers; i++ {
		if err := users.AddUser(userName(i), userPassword(i)); err != nil {
			return nil, err
		}
		if err := users.AddToGroup(userName(i), "bench"); err != nil {
			return nil, err
		}
	}
	users.GrantGroup("bench", auth.Permission{Action: "*", Resource: "*"})
	tgs, err := ticket.NewGrantingService(users)
	if err != nil {
		return nil, err
	}

	g = &benchGrid{tgs: tgs, gateReg: metrics.NewRegistry(), late: newLateLog()}
	if opts.tr != nil {
		g.probes = &probes{ranks: newRankLog(opts.tr)}
	}
	defer func() {
		if err != nil {
			g.close()
			g = nil
		}
	}()
	for i, name := range siteNames {
		s, err := g.newSite(name, authority, users, opts)
		if err != nil {
			return g, err
		}
		g.sites[i] = s
	}
	a, b := g.sites[0], g.sites[1]
	if err := a.proxy.Connect(ctx, b.name, b.proxy.WANAddr()); err != nil {
		return g, fmt.Errorf("connect %s to %s: %w", a.name, b.name, err)
	}
	if err := g.startGate(); err != nil {
		return g, err
	}
	return g, nil
}

func (g *benchGrid) newSite(name string, authority *ca.Authority, users *auth.Store, opts gridOpts) (*benchSite, error) {
	cred, err := authority.IssueHost("proxy." + name)
	if err != nil {
		return nil, err
	}
	ticketKey, err := g.tgs.RegisterService(core.ServiceName(name))
	if err != nil {
		return nil, err
	}
	policy, err := balance.New("least-loaded", 1)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	var inner transport.Network = transport.TCP{}
	if opts.delay > 0 {
		inner = &delayNet{inner: inner, delay: opts.delay, budget: delayBudget, late: g.late}
	}
	var wan transport.Network = transport.NewTLS(inner, cred, authority.CertPool(), reg)
	var lan transport.Network = transport.NewLabelTCP()
	if p := g.probes; p != nil {
		wan = &tracedNet{inner: wan, tr: opts.tr, stats: &p.wan, kind: "wan"}
		lan = &tracedNet{inner: lan, tr: opts.tr, stats: &p.lan, kind: "lan"}
		tp := &tracedPolicy{Policy: policy, tr: opts.tr}
		p.policy = append(p.policy, tp)
		policy = tp
	}
	wanAddr, err := freeWANAddr()
	if err != nil {
		return nil, err
	}
	proxy, err := core.New(core.Config{
		Site:      name,
		WANAddr:   wanAddr,
		LocalAddr: "proxy." + name,
		WAN:       wan,
		Local:     lan,
		Users:     users,
		TGS:       g.tgs,
		TicketKey: ticketKey,
		Policy:    policy,
		Metrics:   reg,
	})
	if err != nil {
		return nil, err
	}
	s := &benchSite{name: name, reg: reg, lan: lan, proxy: proxy}
	for i := 0; i < nodesPerSite; i++ {
		agent := node.New(fmt.Sprintf("%s-n%d", name, i), name, lan,
			node.WithHW(node.HWProfile{Speed: 1, RAMMB: 2048, DiskMB: 64 << 10, RAMPerProcMB: 64}))
		programs.RegisterAll(agent)
		if p := g.probes; p != nil {
			agent.RegisterProgram("ring", p.ranks.wrap(programs.Ring()))
			agent.RegisterProgram("digest", p.ranks.wrap(programs.Digest()))
		}
		proxy.AttachNode(agent)
		s.nodes = append(s.nodes, agent)
	}
	if err := proxy.Start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startGate serves the gateway for site A on a loopback HTTP listener.
func (g *benchGrid) startGate() error {
	a := g.sites[0]
	gw, err := gate.New(gate.Config{
		Site:      a.name,
		ProxyAddr: a.proxy.LocalAddr(),
		Network:   a.lan,
		TGS:       g.tgs,
		Metrics:   g.gateReg,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.gateway, g.stopGate = gw, cancel
	g.gateURL = "http://" + ln.Addr().String()
	g.server = &http.Server{Handler: gw, ReadHeaderTimeout: 10 * time.Second}
	g.served, g.gateRun = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(g.gateRun)
		gw.Run(ctx)
	}()
	go func() {
		defer close(g.served)
		if err := g.server.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("perfbench: gateway server: %v\n", err)
		}
	}()
	return nil
}

// close tears the grid down and waits for what it started.
func (g *benchGrid) close() {
	if g.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = g.gateway.Drain(ctx)
		_ = g.server.Shutdown(ctx)
		cancel()
		g.stopGate()
		<-g.served
		<-g.gateRun
	}
	for _, s := range g.sites {
		if s != nil {
			s.close()
		}
	}
}

func (s *benchSite) close() {
	_ = s.proxy.Close()
	for _, agent := range s.nodes {
		agent.Stop()
	}
}

// linkInfo is what a run reads of the live tunnel between the sites.
type linkInfo struct {
	bondConns  int
	windowMode string
}

// link reads the bond width of site A's tunnel to site B and infers its
// window mode: an unbonded session runs the RTT prober only when its
// windows are adaptive, so a measured RTT means adaptive. A bonded
// session probes in either mode, so its mode reads "unknown".
func (g *benchGrid) link() linkInfo {
	conns, rtt, ok := g.sites[0].proxy.PeerBondWidth(g.sites[1].name)
	switch {
	case !ok:
		return linkInfo{0, "none"}
	case conns > 1:
		return linkInfo{conns, "unknown"}
	case rtt > 0:
		return linkInfo{conns, "adaptive"}
	default:
		return linkInfo{conns, "static"}
	}
}

// snapshot sums the metric registries of both sites and the gateway.
func (g *benchGrid) snapshot() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range g.sites {
		for k, v := range s.reg.Snapshot() {
			out[k] += v
		}
	}
	for k, v := range g.gateReg.Snapshot() {
		out[k] += v
	}
	return out
}
