package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
	"gridproxy/internal/wire"
)

// BenchSchema identifies the layout of BENCH_tunnel.json. Bump it if the
// field set changes shape. v2 added per-run bond_conns: captures are now
// parameterized by tunnel connection fan-out (the "bonded-k4" label).
const BenchSchema = "gridproxy/tunnel-bench/v2"

// BenchFile is the committed benchmark artifact: one run per capture
// (before/after a change), each holding every tunnel micro-benchmark.
type BenchFile struct {
	Schema string     `json:"schema"`
	Runs   []BenchRun `json:"runs"`
}

// BenchRun is one labeled capture of the tunnel micro-benchmarks.
// BondConns records the tunnel fan-out the throughput benchmark ran at
// (0 in pre-v2 captures means the implicit single connection).
type BenchRun struct {
	Label     string        `json:"label"`
	BondConns int           `json:"bond_conns,omitempty"`
	Results   []BenchResult `json:"results"`
}

// BenchResult is one benchmark's numbers in benchstat-equivalent units.
type BenchResult struct {
	Name        string  `json:"name"`
	MBPerS      float64 `json:"mb_per_s"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// BenchTunnelThroughput measures multiplexed bulk throughput end to end:
// four concurrent streams pushing 64 KiB writes through one session over
// a memory WAN charging per-write latency, the regime where flush
// coalescing pays. The body lives here so `go test -bench` (via the
// repo-root wrapper) and `gridbench -json` measure the same thing.
//
// Writers are explicit goroutines sharing an op budget rather than
// b.RunParallel, which spawns only GOMAXPROCS workers and exercises no
// concurrency on a single-core machine.
func BenchTunnelThroughput(b *testing.B) { benchTunnelThroughputK(b, 1) }

// BenchTunnelThroughputBonded4 is the same workload sprayed over a
// 4-connection bonded session: each member connection charges its WAN
// latency independently, so bonding buys parallel flushes on a
// latency-dominated path.
func BenchTunnelThroughputBonded4(b *testing.B) { benchTunnelThroughputK(b, 4) }

func benchTunnelThroughputK(b *testing.B, bond int) {
	const (
		streams = 4
		frame   = 64 << 10
		wanLat  = 100 * time.Microsecond
		// Per-connection-direction bandwidth: each bond member is its
		// own shaped flow, the regime bonding exists for (a single
		// conn's per-flow cap — TCP windows, per-flow policers — caps
		// the whole peer pair; k conns aggregate k caps).
		wanBW = 256 << 20
	)
	mem := transport.NewMemNetwork(transport.WithLatency(wanLat), transport.WithBandwidth(wanBW))
	defer mem.Close()
	ln, err := mem.Listen("peer")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Both captures run the same static default window so the bonded
	// delta isolates the transport change, not a flow-control retune.
	cfg := tunnel.Config{WindowMin: tunnel.DefaultWindow, WindowMax: tunnel.DefaultWindow}
	reg := tunnel.NewBondRegistry()
	sessCh := make(chan *tunnel.Session, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				s, err := tunnel.ServerConn(conn, reg, cfg, 5*time.Second)
				if err == nil && s != nil {
					sessCh <- s
				}
			}(conn)
		}
	}()
	conn, err := mem.Dial(ctx, "peer")
	if err != nil {
		b.Fatal(err)
	}
	client := tunnel.Client(conn, cfg)
	defer client.Close()
	// The server session materializes on the client's first frame.
	if err := client.Ping(ctx); err != nil {
		b.Fatal(err)
	}
	server := <-sessCh
	defer server.Close()
	if bond > 1 {
		var id tunnel.BondID
		copy(id[:], "bench-bond-id-16")
		reg.Expect(id, server, bond-1)
		for i := 1; i < bond; i++ {
			bc, err := mem.Dial(ctx, "peer")
			if err != nil {
				b.Fatal(err)
			}
			if err := client.AddBondConn(id, i, bc); err != nil {
				b.Fatal(err)
			}
		}
		for client.BondWidth() < bond || server.BondWidth() < bond {
			time.Sleep(time.Millisecond)
		}
	}
	go func() {
		for {
			st, err := server.Accept(ctx)
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, st) }()
		}
	}()
	sts := make([]*tunnel.Stream, streams)
	for i := range sts {
		st, err := client.Open(ctx, nil)
		if err != nil {
			b.Fatal(err)
		}
		sts[i] = st
	}
	payload := make([]byte, frame)
	var ops atomic.Int64
	ops.Store(int64(b.N))
	var wg sync.WaitGroup
	b.SetBytes(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(st *tunnel.Stream) {
			defer wg.Done()
			for ops.Add(-1) >= 0 {
				if _, err := st.Write(payload); err != nil {
					b.Error(err)
					return
				}
			}
		}(sts[i])
	}
	wg.Wait()
}

// BenchWireRoundTrip measures raw frame codec cost — one frame written
// through the batched writer and read back through the pooled reader —
// with no connection in the way.
func BenchWireRoundTrip(b *testing.B) {
	payload := bytes.Repeat([]byte{0xA5}, 16<<10)
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	r := wire.NewReader(&buf)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteFrame(1, payload); err != nil {
			b.Fatal(err)
		}
		f, err := r.ReadFramePooled()
		if err != nil {
			b.Fatal(err)
		}
		wire.PutPayload(f.Payload)
	}
}

// tunnelBenchmarks names every benchmark captured into BENCH_tunnel.json.
// Each body is parameterized by the bond width of the capture; benchmarks
// without a tunnel in them ignore it.
var tunnelBenchmarks = []struct {
	name string
	fn   func(b *testing.B, bond int)
}{
	{"TunnelThroughput", benchTunnelThroughputK},
	{"WireRoundTrip", func(b *testing.B, _ int) { BenchWireRoundTrip(b) }},
}

// TunnelBench runs the tunnel micro-benchmarks via testing.Benchmark and
// returns them as one labeled run at bond width 1.
func TunnelBench(label string) (BenchRun, error) { return TunnelBenchK(label, 1) }

// TunnelBenchK runs the tunnel micro-benchmarks at the given bond width.
func TunnelBenchK(label string, bond int) (BenchRun, error) {
	if bond < 1 {
		bond = 1
	}
	run := BenchRun{Label: label, BondConns: bond}
	for _, bench := range tunnelBenchmarks {
		fn := bench.fn
		r := testing.Benchmark(func(b *testing.B) { fn(b, bond) })
		if r.N == 0 {
			return BenchRun{}, fmt.Errorf("benchmark %s failed", bench.name)
		}
		run.Results = append(run.Results, BenchResult{
			Name:        bench.name,
			MBPerS:      float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e6,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return run, nil
}

// WriteBenchFile captures a labeled benchmark run into the JSON artifact
// at path, preserving runs already recorded under other labels (so a
// "before" capture survives the "after" one) and replacing any run with
// the same label.
func WriteBenchFile(path, label string) (BenchRun, error) {
	return WriteBenchFileK(path, label, 1)
}

// WriteBenchFileK is WriteBenchFile at an explicit bond width (the
// "bonded-k4" capture).
func WriteBenchFileK(path, label string, bond int) (BenchRun, error) {
	run, err := TunnelBenchK(label, bond)
	if err != nil {
		return BenchRun{}, err
	}
	file, err := loadBenchFile(path)
	if err != nil {
		return BenchRun{}, err
	}
	mergeBenchRun(file, run)
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return BenchRun{}, err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return BenchRun{}, err
	}
	return run, nil
}

// loadBenchFile reads an existing artifact, or starts a fresh one if
// path does not exist yet.
func loadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &BenchFile{Schema: BenchSchema}, nil
	}
	if err != nil {
		return nil, err
	}
	var file BenchFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if file.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, file.Schema, BenchSchema)
	}
	return &file, nil
}

// mergeBenchRun replaces the run sharing run's label, or appends.
func mergeBenchRun(file *BenchFile, run BenchRun) {
	for i := range file.Runs {
		if file.Runs[i].Label == run.Label {
			file.Runs[i] = run
			return
		}
	}
	file.Runs = append(file.Runs, run)
}
