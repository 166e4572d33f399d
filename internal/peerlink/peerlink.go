// Package peerlink keeps proxy-to-proxy sessions. The paper routes all
// inter-site control through the site-border proxies, which makes the
// peer session the grid's availability unit: a dropped session to a
// configured peer must come back without operator action, and a hung
// one must be noticed before it stalls the control plane.
//
// One manager does both jobs: the connection Cache. It dials sites on
// demand, evicts idle and least-recently-used sessions, and guards each
// site with a circuit breaker. A configured peer is a pin in the cache:
// its entry is exempt from eviction, its loss schedules a redial at the
// configured address on the breaker's backoff window, and the cache's
// janitor heartbeats it.
//
// The package deliberately knows nothing about the proxy: the owner
// supplies the dial, probe and eviction hooks, so the cache is testable
// with fakes.
package peerlink

import (
	"math/rand"
	"time"

	"gridproxy/internal/logging"
	"gridproxy/internal/metrics"
)

// Session is a cached connection. The owner watches Done to detect death
// and calls the cache's Drop/DropIf; the cache calls Close to tear a
// session down.
type Session interface {
	Done() <-chan struct{}
	Close() error
}

// Config carries every peer-layer knob. The zero value means "use
// defaults"; negative durations disable the corresponding behaviour.
type Config struct {
	// HeartbeatInterval is the probe period for pinned sessions (default
	// 3s; negative disables heartbeats).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one probe (default 1s).
	HeartbeatTimeout time.Duration
	// HeartbeatMisses is how many consecutive probe failures close a
	// pinned session for redial (default 3).
	HeartbeatMisses int
	// RPCTimeout is the default deadline applied to control-plane calls
	// that arrive without one (default 10s; negative disables).
	RPCTimeout time.Duration
	// HelloTimeout is how long an inbound session may take to identify
	// itself before it is reaped (default 10s).
	HelloTimeout time.Duration
	// StatusTTL is the staleness budget for gossiped site summaries:
	// Status reads served entirely from summaries younger than this
	// count as cache hits, older ones as misses (the directory still
	// answers either way — freshness arrives by gossip, not by refetch).
	// Default 0: every directory-served read counts as a miss.
	StatusTTL time.Duration

	// MaxTunnels caps the number of live unpinned sessions; inserting
	// past the cap evicts the least-recently-used one (default 32;
	// negative: unlimited).
	MaxTunnels int
	// IdleClose closes unpinned sessions unused for this long (default
	// 2m; negative disables).
	IdleClose time.Duration
	// SweepEvery is the idle janitor's period (default IdleClose/4).
	SweepEvery time.Duration
	// BreakerThreshold is how many consecutive dial failures to a site
	// open its circuit breaker (default 3; negative disables breakers).
	BreakerThreshold int
	// BreakerMinOpen is the first backoff window (default 500ms): the
	// first breaker open and the first redial of a lost pinned site.
	// Later windows double, ±20% jitter.
	BreakerMinOpen time.Duration
	// BreakerMaxOpen caps the backoff window (default 30s).
	BreakerMaxOpen time.Duration

	// Now supplies time for breaker, redial and heartbeat deadlines; nil
	// means time.Now (tests inject clocks).
	Now func() time.Time
	// Metrics may be nil.
	Metrics *metrics.Registry
	// Logger may be nil.
	Logger *logging.Logger
}

// Default knob values.
const (
	DefaultHeartbeatInterval = 3 * time.Second
	DefaultHeartbeatTimeout  = time.Second
	DefaultHeartbeatMisses   = 3
	DefaultRPCTimeout        = 10 * time.Second
	DefaultHelloTimeout      = 10 * time.Second
	DefaultMaxTunnels        = 32
	DefaultIdleClose         = 2 * time.Minute
	DefaultBreakerThreshold  = 3
	DefaultBreakerMinOpen    = 500 * time.Millisecond
	DefaultBreakerMaxOpen    = 30 * time.Second
)

// dialTimeout bounds one redial of a pinned site (dial and handshake).
const dialTimeout = 10 * time.Second

// WithDefaults fills zero fields with defaults. Negative durations are
// kept (they mean "disabled").
func (c Config) WithDefaults() Config {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = DefaultHeartbeatMisses
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = DefaultRPCTimeout
	}
	if c.HelloTimeout <= 0 {
		c.HelloTimeout = DefaultHelloTimeout
	}
	if c.MaxTunnels == 0 {
		c.MaxTunnels = DefaultMaxTunnels
	}
	if c.IdleClose == 0 {
		c.IdleClose = DefaultIdleClose
	}
	if c.SweepEvery <= 0 {
		if c.IdleClose > 0 {
			c.SweepEvery = c.IdleClose / 4
		} else {
			c.SweepEvery = 30 * time.Second
		}
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerMinOpen <= 0 {
		c.BreakerMinOpen = DefaultBreakerMinOpen
	}
	if c.BreakerMaxOpen <= 0 {
		c.BreakerMaxOpen = DefaultBreakerMaxOpen
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// window is the n-th backoff window (n from 0): BreakerMinOpen·2ⁿ,
// capped at BreakerMaxOpen, ±20% jitter so a fleet of proxies does not
// retest a recovering site in lockstep. Breaker opens and pinned-site
// redials both wait it out.
func (c Config) window(n int) time.Duration {
	w := c.BreakerMinOpen
	for i := 0; i < n && w < c.BreakerMaxOpen; i++ {
		w *= 2
	}
	if w > c.BreakerMaxOpen {
		w = c.BreakerMaxOpen
	}
	return time.Duration(float64(w) * (1 + 0.2*(2*rand.Float64()-1)))
}
