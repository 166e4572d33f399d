// Package site assembles the pieces of one grid site — a site-local
// network, node agents, and the border proxy — and provides a multi-site
// Testbed that stands in for the paper's physical deployment: several
// LANs/clusters joined through proxy servers over an (optionally shaped)
// WAN with TLS between the borders.
//
// The Testbed is the substrate for integration tests, the examples, and
// the experiment harness. Every byte still flows through real listeners,
// dials, TLS records and tunnel frames; only the wires are in-memory.
package site

import (
	"context"
	"fmt"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/balance"
	"gridproxy/internal/ca"
	"gridproxy/internal/core"
	"gridproxy/internal/logging"
	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/stage"
	"gridproxy/internal/ticket"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
)

// Site is one assembled grid site.
type Site struct {
	Name  string
	Proxy *core.Proxy
	Nodes []*node.Agent
	// Local is the site's internal network (plaintext).
	Local *transport.MemNetwork
}

// LocalAddr returns the proxy's client service address inside the site.
func (s *Site) LocalAddr() string { return s.Proxy.LocalAddr() }

// RegisterProgram installs a program on every node of the site.
func (s *Site) RegisterProgram(name string, fn node.ProgramFunc) {
	for _, agent := range s.Nodes {
		agent.RegisterProgram(name, fn)
	}
}

// Close stops the proxy and all node agents.
func (s *Site) Close() {
	_ = s.Proxy.Close()
	for _, agent := range s.Nodes {
		agent.Stop()
	}
	_ = s.Local.Close()
}

// SiteSpec describes one site of a testbed.
type SiteSpec struct {
	Name string
	// Nodes lists the hardware profile of each node; len(Nodes) nodes
	// are created, named <site>-n<i>.
	Nodes []node.HWProfile
	// Tunnel, if non-nil, overrides the testbed-wide tunnel config for
	// this site — how mixed-version grids (one site bonding, another
	// not) are simulated.
	Tunnel *tunnel.Config
}

// UniformNodes builds n identical node profiles with the given speed.
func UniformNodes(n int, speed float64) []node.HWProfile {
	profiles := make([]node.HWProfile, n)
	for i := range profiles {
		profiles[i] = node.HWProfile{
			Speed:        speed,
			RAMMB:        2048,
			DiskMB:       64 << 10,
			RAMPerProcMB: 64,
		}
	}
	return profiles
}

// TestbedConfig describes a whole simulated grid.
type TestbedConfig struct {
	// GridName names the CA.
	GridName string
	// Sites lists the member sites.
	Sites []SiteSpec
	// WANLatency and WANBandwidth shape the inter-site links; zero
	// means unshaped.
	WANLatency   time.Duration
	WANBandwidth int64
	// LANLatency shapes each site's internal network with a one-way
	// per-message delay; zero means unshaped. Load experiments set this
	// so in-site RPCs have a realistic service time instead of the
	// infinite speed of an unshaped in-memory pipe.
	LANLatency time.Duration
	// Policy is the placement policy name (default "least-loaded").
	Policy string
	// Lifecycle carries the peer-layer knobs (connection cache, breaker
	// and redial window, heartbeats, deadlines) handed to every proxy
	// (zero value: peerlink defaults).
	Lifecycle peerlink.Config
	// Gossip carries the membership-gossip knobs handed to every proxy
	// (zero value: core.GossipConfig defaults).
	Gossip core.GossipConfig
	// Jobs carries the job-lifecycle fault-tolerance knobs handed to
	// every proxy (zero value: core.JobConfig defaults).
	Jobs core.JobConfig
	// Stage carries the data-plane knobs (blob store size, chunking,
	// striping) handed to every proxy (zero value: stage defaults).
	Stage stage.Config
	// Tunnel carries the WAN tunnel knobs (bonding width, adaptive
	// window clamps) handed to every proxy unless a SiteSpec overrides
	// them (zero value: adaptive flow control, single connection).
	Tunnel tunnel.Config
	// Metrics may be nil.
	Metrics *metrics.Registry
	// Logger may be nil.
	Logger *logging.Logger
	// Users, if nil, a store is created with a default admin user
	// "admin"/"admin" holding "*"/"*".
	Users *auth.Store
	// Clock overrides the time source for the TGS and every proxy, so
	// expiry tests can move the whole grid's clock at once. Nil means
	// time.Now.
	Clock func() time.Time
}

// Testbed is an assembled multi-site grid.
type Testbed struct {
	CA    *ca.Authority
	Users *auth.Store
	TGS   *ticket.GrantingService
	Sites []*Site
	// WAN is the shared inter-site backbone (pre-TLS).
	WAN *transport.MemNetwork

	metrics    *metrics.Registry
	clock      func() time.Time
	lanLatency time.Duration
	specs      map[string]SiteSpec
	policyName string
	lifecycle  peerlink.Config
	gossip     core.GossipConfig
	jobs       core.JobConfig
	stage      stage.Config
	tunnel     tunnel.Config
	logger     *logging.Logger
}

// NewTestbed builds and starts a grid: a CA, per-site TLS credentials, a
// shared (optionally shaped) WAN, one proxy per site, and node agents.
// Proxies are started but not connected; call ConnectAll or connect pairs
// manually.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	if cfg.GridName == "" {
		cfg.GridName = "testgrid"
	}
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("site: testbed needs at least one site")
	}
	authority, err := ca.New(cfg.GridName)
	if err != nil {
		return nil, err
	}
	users := cfg.Users
	if users == nil {
		users, err = auth.NewStore(auth.WithMetrics(cfg.Metrics))
		if err != nil {
			return nil, err
		}
		if err := users.AddUser("admin", "admin"); err != nil {
			return nil, err
		}
		if err := users.GrantUser("admin", auth.Permission{Action: "*", Resource: "*"}); err != nil {
			return nil, err
		}
	}
	tgsOpts := []ticket.Option{ticket.WithMetrics(cfg.Metrics)}
	if cfg.Clock != nil {
		tgsOpts = append(tgsOpts, ticket.WithClock(cfg.Clock))
	}
	tgs, err := ticket.NewGrantingService(users, tgsOpts...)
	if err != nil {
		return nil, err
	}

	var wanOpts []transport.MemOption
	if cfg.WANLatency > 0 {
		wanOpts = append(wanOpts, transport.WithLatency(cfg.WANLatency))
	}
	if cfg.WANBandwidth > 0 {
		wanOpts = append(wanOpts, transport.WithBandwidth(cfg.WANBandwidth))
	}
	wan := transport.NewMemNetwork(wanOpts...)

	policyName := cfg.Policy
	if policyName == "" {
		policyName = "least-loaded"
	}

	tb := &Testbed{
		CA:         authority,
		Users:      users,
		TGS:        tgs,
		WAN:        wan,
		metrics:    cfg.Metrics,
		clock:      cfg.Clock,
		lanLatency: cfg.LANLatency,
		specs:      make(map[string]SiteSpec, len(cfg.Sites)),
		policyName: policyName,
		lifecycle:  cfg.Lifecycle,
		gossip:     cfg.Gossip,
		jobs:       cfg.Jobs,
		stage:      cfg.Stage,
		tunnel:     cfg.Tunnel,
		logger:     cfg.Logger,
	}
	for _, spec := range cfg.Sites {
		s, err := tb.buildSite(spec, policyName, cfg.Logger)
		if err != nil {
			tb.Close()
			return nil, err
		}
		tb.Sites = append(tb.Sites, s)
		tb.specs[spec.Name] = spec
	}
	return tb, nil
}

func (tb *Testbed) buildSite(spec SiteSpec, policyName string, log *logging.Logger) (*Site, error) {
	cred, err := tb.CA.IssueHost("proxy." + spec.Name)
	if err != nil {
		return nil, err
	}
	policy, err := balance.New(policyName, 1)
	if err != nil {
		return nil, err
	}
	var lanOpts []transport.MemOption
	if tb.lanLatency > 0 {
		lanOpts = append(lanOpts, transport.WithLatency(tb.lanLatency))
	}
	local := transport.NewMemNetwork(lanOpts...)
	wanTLS := transport.NewTLS(tb.WAN, cred, tb.CA.CertPool(), tb.metrics)

	ticketKey, err := tb.TGS.RegisterService(core.ServiceName(spec.Name))
	if err != nil {
		return nil, err
	}
	tunnelcfg := tb.tunnel
	if spec.Tunnel != nil {
		tunnelcfg = *spec.Tunnel
	}
	proxy, err := core.New(core.Config{
		Site:      spec.Name,
		WANAddr:   "wan." + spec.Name,
		LocalAddr: "proxy." + spec.Name,
		WAN:       wanTLS,
		Local:     local,
		Users:     tb.Users,
		TGS:       tb.TGS,
		TicketKey: ticketKey,
		Policy:    policy,
		Lifecycle: tb.lifecycle,
		Gossip:    tb.gossip,
		Jobs:      tb.jobs,
		Stage:     tb.stage,
		Tunnel:    tunnelcfg,
		Metrics:   tb.metrics,
		Logger:    log,
		Clock:     tb.clock,
	})
	if err != nil {
		return nil, err
	}
	s := &Site{Name: spec.Name, Proxy: proxy, Local: local}
	for i, hw := range spec.Nodes {
		agent := node.New(fmt.Sprintf("%s-n%d", spec.Name, i), spec.Name, local,
			node.WithHW(hw), node.WithLogger(log))
		s.Nodes = append(s.Nodes, agent)
		proxy.AttachNode(agent)
	}
	if err := proxy.Start(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Site returns the site with the given name, or nil.
func (tb *Testbed) Site(name string) *Site {
	for _, s := range tb.Sites {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// RestartSite tears one site down and rebuilds it from its original
// spec — the testbed's "kill -9 the proxy host and boot a fresh one".
// The new site listens on the same WAN and client addresses; peers that
// pinned it (Connect) will redial and recover without operator action. The returned Site replaces the old one in tb.Sites.
func (tb *Testbed) RestartSite(name string) (*Site, error) {
	spec, ok := tb.specs[name]
	if !ok {
		return nil, fmt.Errorf("site: no spec for site %q", name)
	}
	old := tb.Site(name)
	if old != nil {
		old.Close()
	}
	s, err := tb.buildSite(spec, tb.policyName, tb.logger)
	if err != nil {
		return nil, err
	}
	for i, existing := range tb.Sites {
		if existing.Name == name {
			tb.Sites[i] = s
			return s, nil
		}
	}
	tb.Sites = append(tb.Sites, s)
	return s, nil
}

// ConnectAll joins every pair of sites (each pair connected once, lower
// name dials higher name).
func (tb *Testbed) ConnectAll(ctx context.Context) error {
	for i, a := range tb.Sites {
		for _, b := range tb.Sites[i+1:] {
			if err := a.Proxy.Connect(ctx, b.Name, b.Proxy.WANAddr()); err != nil {
				return fmt.Errorf("site: connect %s->%s: %w", a.Name, b.Name, err)
			}
		}
	}
	return nil
}

// RegisterProgram installs a program on every node of every site.
func (tb *Testbed) RegisterProgram(name string, fn node.ProgramFunc) {
	for _, s := range tb.Sites {
		s.RegisterProgram(name, fn)
	}
}

// Close tears the whole grid down.
func (tb *Testbed) Close() {
	for _, s := range tb.Sites {
		s.Close()
	}
	_ = tb.WAN.Close()
}
