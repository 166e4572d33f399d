package peerlink

import (
	"errors"
	"fmt"
	"time"

	"gridproxy/internal/metrics"
)

// ErrCircuitOpen is returned by Cache.Get while a site's circuit breaker
// is open: recent dials failed, and the breaker is absorbing further
// attempts until its backoff window expires. Callers treat it like a
// dial failure that cost nothing — in particular it is NOT evidence
// about the site (no suspicion escalates from a fast-fail; the failure
// that opened the breaker already did that).
var ErrCircuitOpen = errors.New("peerlink: circuit open")

// breaker is one site's dial circuit breaker. A run of consecutive dial
// failures opens it for a backoff window that doubles with every
// consecutive open (jittered ±20% so a fleet of proxies does not retest
// a recovering site in lockstep). Any successful dial — or an inbound
// session from the site, which proves reachability better than a dial
// would — resets it completely.
//
// The breaker exists for the partitioned steady state: without it,
// every status fan-out, gossip round, and job heartbeat pays a full
// dial timeout per unreachable site per attempt, and N-site fan-outs
// against a partitioned minority turn into seconds of synchronized
// timeout waiting. With it, exactly one caller per window pays the
// timeout; the rest fail in microseconds.
type breaker struct {
	failures  int       // consecutive dial failures since last success
	opens     int       // consecutive opens without an intervening success
	openUntil time.Time // zero when closed
}

// breakerAllowLocked reports whether a dial to site may proceed, counting
// the fast-fail when it may not. Caller holds c.mu.
func (c *Cache[T]) breakerAllowLocked(site string) error {
	if c.cfg.BreakerThreshold < 0 {
		return nil
	}
	b, ok := c.breakers[site]
	if !ok || !c.cfg.Now().Before(b.openUntil) {
		return nil
	}
	c.cfg.Metrics.Counter(metrics.PeerBreakerFastFails).Inc()
	return fmt.Errorf("%w: %s until %s", ErrCircuitOpen, site, b.openUntil.Format(time.RFC3339))
}

// breakerRecord feeds a dial outcome to site's breaker. Successes clear
// it; the BreakerThreshold'th consecutive failure opens it for the next
// backoff window (Config.window: BreakerMinOpen doubled per consecutive
// open, capped at BreakerMaxOpen).
func (c *Cache[T]) breakerRecord(site string, ok bool) {
	if c.cfg.BreakerThreshold < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		delete(c.breakers, site)
		return
	}
	b := c.breakers[site]
	if b == nil {
		b = &breaker{}
		c.breakers[site] = b
	}
	b.failures++
	if b.failures < c.cfg.BreakerThreshold {
		return
	}
	b.failures = 0
	b.opens++
	b.openUntil = c.cfg.Now().Add(c.cfg.window(b.opens - 1))
	c.cfg.Metrics.Counter(metrics.PeerBreakerOpens).Inc()
}
