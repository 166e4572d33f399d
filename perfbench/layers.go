package main

import (
	"fmt"

	"gridproxy/internal/metrics"
)

// perLayerUnits lists every per-layer metric a traced run reports, with
// its unit. A metric that does not apply to a workload reads 0.
var perLayerUnits = map[string]string{
	"gate.requests_per_job":                "count",
	"gate.refused":                         "count",
	"gate.pool_dials":                      "count",
	"grid.put_p50_ms":                      "ms",
	"grid.submit_p50_ms":                   "ms",
	"grid.tunnel_open_ms":                  "ms",
	"core.wan_rpcs_per_job":                "count",
	"core.wan_rpc_mean_ms":                 "ms",
	"core.control_bytes_per_job":           "B",
	"core.prepares_per_job":                "count",
	"core.commits_per_job":                 "count",
	"core.aborts":                          "count",
	"balance.picks_per_job":                "count",
	"balance.pick_us_per_job":              "us",
	"node.rank_run_p50_ms":                 "ms",
	"node.overhead_p50_ms":                 "ms",
	"node.ranks_per_job":                   "count",
	"tunnel.streams_per_job":               "count",
	"wire.frames_per_flush":                "count",
	"wire.bytes_per_flush":                 "B",
	"tunnel.wire_overhead":                 "ratio",
	"wire.control_frame_share":             "ratio",
	"tunnel.rtt_us":                        "us",
	"transport.wan_dials":                  "count",
	"transport.wan_handshake_ms":           "ms",
	"transport.wan_bytes_per_write":        "B",
	"transport.wan_write_block_us_per_MiB": "us",
	"transport.crypto_overhead":            "ratio",
	"transport.lan_dials_per_job":          "count",
	"stage.bytes_in_per_cold_job":          "B",
	"stage.pulls_per_cold_job":             "count",
	"stage.chunk_retries":                  "count",
	"stage.resumes":                        "count",
	"stage.bytes_in_per_warm_job":          "B",
	"stage.cache_hit_ratio":                "ratio",
	"go.allocs_per_job":                    "count",
	"go.allocs_per_MiB":                    "count",
	"go.gc_cycles":                         "count",
	"go.goroutines_leaked":                 "count",
	"host.tcp_time_wait_start":             "count",
	"host.cpu_steal_share":                 "ratio",
	"link.late_us_p99":                     "us",
	"gen.late_ms_p99":                      "ms",
	"check.fail_ratio":                     "ratio",
	"self.bench_ms_per_op":                 "ms",
	"self.gate_ms_per_op":                  "ms",
	"self.grid_ms_per_op":                  "ms",
	"self.node_ms_per_op":                  "ms",
	"self.balance_ms_per_op":               "ms",
	"self.transport_ms_per_op":             "ms",
	"trace.spans":                          "count",
	"trace.overhead.work_p50_ms":           "ratio",
	"trace.overhead.work_tail_ms":          "ratio",
	"trace.overhead.request_ms":            "ratio",
	"trace.overhead.cpu_ms_per_op":         "ratio",
	"job_submit_p50_ms":                    "ms",
	"job_submit_p99_ms":                    "ms",
	"job_p50_ms":                           "ms",
	"job_p99_ms":                           "ms",
	"cpu_ms_per_job":                       "ms",
	"bulk_MBps":                            "MB/s",
	"echo_p50_us":                          "us",
	"echo_p99_us":                          "us",
	"cpu_ns_per_byte":                      "ns",
	"stage_cold_p50_ms":                    "ms",
	"stage_cold_p90_ms":                    "ms",
	"stage_warm_p50_ms":                    "ms",
}

// selfLayers are the layers self time is reported for. "bench" is the
// part of an operation no measured boundary covers: time inside core,
// peerlink, tunnel, wire and mpi between the calls the benchmark sees.
var selfLayers = []string{"bench", "gate", "grid", "node", "balance", "transport"}

// workloadFigures computes the workload's own end-to-end figures, under the
// names the workload description uses, from an untraced window.
func workloadFigures(workload string, w *window) map[string]float64 {
	o := w.out
	m := make(map[string]float64)
	switch workload {
	case "jobs":
		m["job_submit_p50_ms"] = median(o.req)
		m["job_submit_p99_ms"], _ = tail(o.req)
		m["job_p50_ms"] = median(o.work)
		m["job_p99_ms"], _ = tail(o.work)
		m["cpu_ms_per_job"] = perOp(float64(w.cpu)/1e6, o.ops)
	case "tunnel":
		m["bulk_MBps"] = o.extra["bulk_MBps"]
		m["echo_p50_us"] = median(o.req) * 1000
		t, _ := tail(o.req)
		m["echo_p99_us"] = t * 1000
		m["cpu_ns_per_byte"] = perOp(float64(w.cpu), o.ops*mib)
	case "stage":
		m["stage_cold_p50_ms"] = median(o.work)
		m["stage_cold_p90_ms"], _ = tail(o.work)
		m["stage_warm_p50_ms"] = median(o.req)
	}
	return m
}

// perLayer computes the per-layer metrics of a traced window. ref is the
// untraced reference window of the same run.
func perLayer(spec workloadSpec, seed int64, w, ref *window, g *benchGrid, tr *tracer) map[string]metric {
	d, o, p := w.delta, w.out, g.probes
	v := make(map[string]float64)
	f := func(name string) float64 { return float64(d[name]) }
	jobs := o.jobs

	v["gate.requests_per_job"] = perOp(f(metrics.GateRequests), jobs)
	v["gate.refused"] = f(metrics.GateShed) + f(metrics.GateRateLimited) + f(metrics.GateQuotaRefused) + f(metrics.GateDrainRefused)
	v["gate.pool_dials"] = f(metrics.GatePoolDials)

	v["core.wan_rpcs_per_job"] = perOp(f(metrics.ControlRPCs), jobs)
	v["core.wan_rpc_mean_ms"] = perOp(f(metrics.ControlRPCMicros)/1000, f(metrics.ControlRPCs))
	v["core.control_bytes_per_job"] = perOp(f(metrics.ControlBytes), jobs)
	v["core.prepares_per_job"] = perOp(f(metrics.JobPrepares), jobs)
	v["core.commits_per_job"] = perOp(f(metrics.JobCommits), jobs)
	v["core.aborts"] = f(metrics.JobAborts)

	var picks, pickNs int64
	for _, tp := range p.policy {
		picks += tp.picks.Load()
		pickNs += tp.ns.Load()
	}
	v["balance.picks_per_job"] = perOp(float64(picks-w.picks0), jobs)
	v["balance.pick_us_per_job"] = perOp(float64(pickNs-w.pickNs0)/1000, jobs)

	slowest, all := p.ranks.times()
	var overhead []float64
	for app, ta := range o.turnaround {
		if s, ok := slowest[app]; ok {
			overhead = append(overhead, float64(ta-s)/1e6)
		}
	}
	v["node.rank_run_p50_ms"] = median(all)
	v["node.overhead_p50_ms"] = median(overhead)
	v["node.ranks_per_job"] = perOp(float64(len(all)-w.ranks0), jobs)

	v["tunnel.streams_per_job"] = perOp(f(metrics.StreamsOpened), jobs)
	v["wire.frames_per_flush"] = perOp(f(metrics.TunnelBatchFrames), f(metrics.TunnelFlushes))
	v["wire.bytes_per_flush"] = perOp(f(metrics.TunnelFlushBytes), f(metrics.TunnelFlushes))
	v["tunnel.wire_overhead"] = perOp(f(metrics.TunnelFlushBytes), f(metrics.BytesTunneled))
	v["wire.control_frame_share"] = perOp(f(metrics.TunnelBatchControl), f(metrics.TunnelBatchFrames))
	for _, s := range g.sites {
		v["tunnel.rtt_us"] = max(v["tunnel.rtt_us"], float64(s.reg.Snapshot()[metrics.TunnelRTTMicros]))
	}

	// WAN dials happen during setup, so they count over the grid's life.
	dials := float64(p.wan.dials.Load())
	v["transport.wan_dials"] = dials
	v["transport.wan_handshake_ms"] = perOp(float64(p.wan.dialNs.Load())/1e6, dials)
	writes, wrote := float64(p.wan.writes.Load()-w.wanWrites0), float64(p.wan.wrote.Load()-w.wanWrote0)
	v["transport.wan_bytes_per_write"] = perOp(wrote, writes)
	v["transport.wan_write_block_us_per_MiB"] = perOp(float64(p.wan.writeNs.Load()-w.wanWriteNs0)/1000, wrote/mib)
	plain := wrote + float64(p.wan.readBytes.Load()-w.wanRead0)
	v["transport.crypto_overhead"] = perOp(f(metrics.BytesEncrypted), plain)
	v["transport.lan_dials_per_job"] = perOp(float64(p.lan.dials.Load()-w.lanDials0), jobs)

	v["stage.chunk_retries"] = f(metrics.StageChunkRetries)
	v["stage.resumes"] = f(metrics.StageResumes)
	v["stage.cache_hit_ratio"] = perOp(f(metrics.StageCacheHits), f(metrics.StageCacheHits)+f(metrics.StageCacheMisses))

	v["go.allocs_per_job"] = perOp(float64(w.mallocs), jobs)
	if spec.name == "tunnel" {
		v["go.allocs_per_MiB"] = perOp(float64(w.mallocs), o.ops)
	}
	v["go.gc_cycles"] = float64(w.gcs)
	v["link.late_us_p99"] = w.lateUs99
	v["host.cpu_steal_share"] = w.steal
	v["check.fail_ratio"] = perOp(float64(o.failed), float64(o.attempted))

	for k, x := range o.extra {
		if _, ok := perLayerUnits[k]; ok {
			v[k] = x
		}
	}
	for k, x := range workloadFigures(spec.name, ref) {
		v[k] = x
	}

	spans := tr.read(w.start, o.apps, spec.root)
	self := selfTimes(spans)
	for _, layer := range selfLayers {
		v["self."+layer+"_ms_per_op"] = perOp(self[layer], o.ops)
	}
	v["trace.spans"] = float64(len(spans) + tr.dropped)
	path, err := writeSpans(traceDir, fmt.Sprintf("%s-seed%d.jsonl", spec.name, seed), spans)
	if err != nil {
		fmt.Printf("perfbench: writing spans: %v\n", err)
	} else {
		fmt.Printf("perfbench: %d spans written to %s\n", len(spans), path)
	}

	m := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		m[name] = metric{v[name], unit}
	}
	return m
}

// traceDir holds written spans, inside the build directory the checkout
// ignores.
const traceDir = ".bench_build/trace"
