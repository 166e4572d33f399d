package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/balance"
	"gridproxy/internal/node"
	"gridproxy/internal/transport"
)

// span is one timed call across a layer boundary, seen from outside the
// program. Spans of one operation (a job, an iteration, an echo) share
// Op, and their parent is the operation's root span. App names the grid
// application a program-side span belongs to; it is resolved to an Op
// when the trace is read. A span with neither stays unparented.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	App    string `json:"app,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// maxSpans bounds the trace's memory; later spans are counted, not kept.
const maxSpans = 1 << 19

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs pay no tracing cost.
type tracer struct {
	origin  time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record stores a finished span.
func (t *tracer) record(name string, op int64, app string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Op: op, App: app, Name: name,
			Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// read returns the spans that started at or after from, with App
// resolved to Op through apps and each span parented to the root span
// (named root) of its operation.
func (t *tracer) read(from time.Time, apps map[string]int64, root string) []span {
	cut := from.Sub(t.origin).Nanoseconds()
	t.mu.Lock()
	var out []span
	for _, s := range t.spans {
		if s.Start >= cut {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	roots := make(map[int64]int64)
	for i := range out {
		if out[i].Op == 0 && out[i].App != "" {
			out[i].Op = apps[out[i].App]
		}
		if out[i].Name == root && out[i].Op != 0 {
			roots[out[i].Op] = out[i].ID
		}
	}
	for i := range out {
		if out[i].Name != root {
			out[i].Parent = roots[out[i].Op]
		}
	}
	return out
}

// selfTimes returns each layer's self time in milliseconds: a span's
// duration minus the part of it that its children cover. Unparented
// spans count whole.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		self[s.layer()] += float64(s.End-s.Start-coveredNs(s, children[s.ID])) / 1e6
	}
	return self
}

// coveredNs returns how much of parent's interval the union of the
// children's intervals covers.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeSpans writes the trace as JSON lines under dir.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}

// --- wrappers handed to the program in traced runs ---------------------

// ioStats counts what crosses one wrapped network.
type ioStats struct {
	dials     atomic.Int64
	dialNs    atomic.Int64
	writes    atomic.Int64
	wrote     atomic.Int64
	writeNs   atomic.Int64
	readBytes atomic.Int64
}

// tracedNet wraps a transport.Network, counting dials, writes and bytes
// and recording a span per dial and per WAN write.
type tracedNet struct {
	inner transport.Network
	tr    *tracer
	stats *ioStats
	kind  string // "wan" or "lan"
}

func (n *tracedNet) Listen(addr string) (net.Listener, error) {
	ln, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: ln, n: n}, nil
}

func (n *tracedNet) Dial(ctx context.Context, addr string) (net.Conn, error) {
	start := time.Now()
	conn, err := n.inner.Dial(ctx, addr)
	end := time.Now()
	n.stats.dials.Add(1)
	n.stats.dialNs.Add(end.Sub(start).Nanoseconds())
	var app string
	if n.kind == "lan" {
		if parts := strings.Split(addr, "/"); len(parts) > 1 {
			app = parts[len(parts)-2]
		}
	}
	n.tr.record("transport."+n.kind+"_dial", 0, app, start, end)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: conn, n: n}, nil
}

type tracedListener struct {
	net.Listener
	n *tracedNet
}

func (l *tracedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: conn, n: l.n}, nil
}

type tracedConn struct {
	net.Conn
	n *tracedNet
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	k, err := c.Conn.Write(p)
	end := time.Now()
	st := c.n.stats
	st.writes.Add(1)
	st.wrote.Add(int64(k))
	st.writeNs.Add(end.Sub(start).Nanoseconds())
	if c.n.kind == "wan" {
		c.n.tr.record("transport.wan_write", 0, "", start, end)
	}
	return k, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.stats.readBytes.Add(int64(k))
	return k, err
}

// CloseWrite keeps half-close working through the wrapper; where the
// connection cannot half-close it closes, as a caller falling back
// from half-close would.
func (c *tracedConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	_ = c.Conn.Close()
	return fmt.Errorf("perfbench: %T cannot half-close", c.Conn)
}

// tracedPolicy times the placement policy's picks.
type tracedPolicy struct {
	balance.Policy
	tr    *tracer
	picks atomic.Int64
	ns    atomic.Int64
}

func (p *tracedPolicy) Pick(nodes []balance.NodeInfo) (int, error) {
	start := time.Now()
	i, err := p.Policy.Pick(nodes)
	end := time.Now()
	p.picks.Add(1)
	p.ns.Add(end.Sub(start).Nanoseconds())
	p.tr.record("balance.pick", 0, "", start, end)
	return i, err
}

// rankLog times each rank's program run, keyed by application.
type rankLog struct {
	tr    *tracer
	mu    sync.Mutex
	ranks map[string][]time.Duration // app id -> rank run times
}

func newRankLog(tr *tracer) *rankLog {
	return &rankLog{tr: tr, ranks: make(map[string][]time.Duration)}
}

func (l *rankLog) wrap(fn node.ProgramFunc) node.ProgramFunc {
	return func(ctx context.Context, env node.Env) error {
		start := time.Now()
		err := fn(ctx, env)
		end := time.Now()
		l.tr.record("node.rank", 0, env.AppID, start, end)
		l.mu.Lock()
		l.ranks[env.AppID] = append(l.ranks[env.AppID], end.Sub(start))
		l.mu.Unlock()
		return err
	}
}

// slowest returns each application's slowest rank and all rank times.
func (l *rankLog) times() (slowest map[string]time.Duration, all []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	slowest = make(map[string]time.Duration, len(l.ranks))
	for app, ds := range l.ranks {
		for _, d := range ds {
			all = append(all, float64(d)/1e6)
			if d > slowest[app] {
				slowest[app] = d
			}
		}
	}
	return slowest, all
}
