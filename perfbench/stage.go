package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"gridproxy/internal/grid"
	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
	"gridproxy/internal/stage"
)

const (
	// blobSize is one staged input. Client.Put sends a blob as one frame
	// and wire.MaxPayload is 16 MiB, so 8 MiB leaves room.
	blobSize = 8 << 20
	// warmEvery makes every warmEvery-th iteration reuse an earlier blob.
	warmEvery = 4
	// warmPick is how many recent cold blobs a warm iteration picks from;
	// all of them are still in both stores' default 256 MiB caches.
	warmPick    = 8
	digestRanks = 4
	// fillColds is how many cold iterations the warm-up runs: one blob
	// more than a default store holds, so both stores evict from the
	// first measured iteration on and every window measures the same
	// state.
	fillColds = stage.DefaultMaxBytes/blobSize + 1
)

// stageRunner drives the stage workload: one closed-loop client at site
// A puts a fresh seeded blob and runs a digest job on it, so site B
// pulls it cold; every fourth iteration reruns an earlier blob, which B
// must serve from its cache without moving a byte.
type stageRunner struct {
	g      *benchGrid
	seed   int64
	client *grid.Client
	colds  []grid.FileRef
}

func startStage(ctx context.Context, g *benchGrid, seed int64) (runner, error) {
	a := g.sites[0]
	c, err := grid.Dial(ctx, a.lan, a.proxy.LocalAddr())
	if err != nil {
		return nil, err
	}
	if err := c.Login(ctx, userName(0), userPassword(0)); err != nil {
		_ = c.Close()
		return nil, err
	}
	return &stageRunner{g: g, seed: seed, client: c}, nil
}

func (r *stageRunner) close() { _ = r.client.Close() }

// iteration is one measured put-and-digest round.
type iteration struct {
	op      int64
	warm    bool
	id      string
	total   time.Duration // cold: Put start to done; warm: submit to done
	putMs   float64
	subMs   float64
	delta   map[string]int64 // site B's metrics over the iteration
	sent    time.Time
	done    time.Time
	checked error
}

func seededBlob(seed int64, i int64) []byte {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
	b := make([]byte, blobSize)
	for k := 0; k < len(b); k += 8 {
		binary.LittleEndian.PutUint64(b[k:], rng.Uint64())
	}
	return b
}

// iterate runs one round. Errors from the grid end the run; failed
// checks are returned in it.checked.
func (r *stageRunner) iterate(ctx context.Context, op int64, warm bool, rng *rand.Rand, tr *tracer) (*iteration, error) {
	it := &iteration{op: op, warm: warm}
	var ref grid.FileRef
	var blob []byte
	var want string
	if warm {
		n := min(warmPick, len(r.colds))
		ref = r.colds[len(r.colds)-1-rng.IntN(n)]
	} else {
		// The blob and its hash are made before the clock starts, so
		// the cold time covers only the program's work.
		blob = seededBlob(r.seed, op)
		want = stage.Hash(blob)
	}
	// Input staging shows at site B, the puller; outputs flowing back
	// to A are not staging of the input.
	b := r.g.sites[1].reg
	before := b.Snapshot()
	start := time.Now()
	if !warm {
		var err error
		ref, err = r.client.Put(ctx, "input", blob)
		end := time.Now()
		tr.record("grid.put", op, "", start, end)
		it.putMs = float64(end.Sub(start)) / 1e6
		if err != nil {
			return nil, fmt.Errorf("put: %w", err)
		}
		if err := checkRef(ref, want, blobSize); err != nil {
			it.checked = err
			return it, nil
		}
		r.colds = append(r.colds, ref)
	}
	it.sent = time.Now()
	id, err := r.client.SubmitJob(ctx, grid.JobSpec{
		Program: "digest",
		Args:    []string{ref.Name},
		Procs:   digestRanks,
		StageIn: []grid.FileRef{ref},
	})
	submitted := time.Now()
	tr.record("grid.submit", op, "", it.sent, submitted)
	it.subMs = float64(submitted.Sub(it.sent)) / 1e6
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	it.id = id
	if err := r.awaitDone(ctx, id); err != nil {
		it.checked = err
		return it, nil
	}
	it.done = time.Now()
	if warm {
		it.total = it.done.Sub(it.sent)
	} else {
		it.total = it.done.Sub(start)
	}
	tr.record("bench.iter", op, "", start, it.done)
	after := b.Snapshot()
	it.delta = make(map[string]int64)
	for k, v := range after {
		it.delta[k] = v - before[k]
	}
	if warm {
		if err := checkWarm(it.delta[metrics.StageBytesReceived]); err != nil {
			it.checked = err
			return it, nil
		}
	}
	it.checked = r.checkOutputs(ctx, op, id, ref, tr)
	return it, nil
}

// awaitDone polls site A's job table every pollEvery until the job ends.
func (r *stageRunner) awaitDone(ctx context.Context, id string) error {
	a := r.g.sites[0].proxy
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		state, detail, err := a.JobStatus(id)
		if err != nil {
			return err
		}
		switch state {
		case proto.JobDone:
			return nil
		case proto.JobFailed, proto.JobCancelled:
			return fmt.Errorf("%w: job %s ended %v: %s", errCheck, id, state, detail)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// checkOutputs fetches the job's outputs and checks each names the
// staged blob's SHA-256.
func (r *stageRunner) checkOutputs(ctx context.Context, op int64, id string, ref grid.FileRef, tr *tracer) error {
	start := time.Now()
	outs, err := r.client.JobOutputs(ctx, id)
	tr.record("grid.outputs", op, "", start, time.Now())
	if err != nil {
		return fmt.Errorf("outputs: %w", err)
	}
	contents := make(map[string][]byte)
	for _, o := range outs {
		if _, ok := contents[o.Hash]; ok {
			continue
		}
		start := time.Now()
		data, err := r.client.Get(ctx, o.Hash)
		tr.record("grid.get", op, "", start, time.Now())
		if err != nil {
			return fmt.Errorf("get output %s: %w", o.Name, err)
		}
		contents[o.Hash] = data
	}
	return checkDigests(outs, contents, ref, digestRanks)
}

func (r *stageRunner) warmup(ctx context.Context) error {
	rng := rand.New(rand.NewPCG(uint64(r.seed), 0x7761726d))
	for i := 0; i <= fillColds; i++ {
		warm := i == fillColds
		it, err := r.iterate(ctx, -int64(i+1), warm, rng, nil)
		if err != nil {
			return err
		}
		if it.checked != nil {
			return it.checked
		}
	}
	return nil
}

func (r *stageRunner) run(ctx context.Context, d time.Duration, tr *tracer) (*outcome, error) {
	rng := rand.New(rand.NewPCG(uint64(r.seed), 0x73746167))
	out := &outcome{
		extra:      map[string]float64{},
		apps:       make(map[string]int64),
		turnaround: make(map[string]time.Duration),
	}
	var putMs, subMs []float64
	var cold, warm float64
	var coldIn, warmIn, coldPulls int64
	deadline := time.Now().Add(d)
	for op := int64(1); time.Now().Before(deadline); op++ {
		isWarm := op%warmEvery == 0 && len(r.colds) > 0
		it, err := r.iterate(ctx, op, isWarm, rng, tr)
		if err != nil {
			return nil, err
		}
		out.attempted++
		if it.id != "" {
			out.jobs++
			out.apps[it.id] = op
		}
		if it.checked != nil {
			out.failed++
			fmt.Printf("perfbench: stage: %v\n", it.checked)
			continue
		}
		out.ops++
		out.turnaround[it.id] = it.done.Sub(it.sent)
		subMs = append(subMs, it.subMs)
		if isWarm {
			warm++
			warmIn += it.delta[metrics.StageBytesReceived]
			out.req = append(out.req, float64(it.total)/1e6)
		} else {
			cold++
			coldIn += it.delta[metrics.StageBytesReceived]
			coldPulls += it.delta[metrics.StagePulls]
			putMs = append(putMs, it.putMs)
			out.work = append(out.work, float64(it.total)/1e6)
		}
	}
	out.extra["grid.put_p50_ms"] = median(putMs)
	out.extra["grid.submit_p50_ms"] = median(subMs)
	out.extra["stage.bytes_in_per_cold_job"] = perOp(float64(coldIn), cold)
	out.extra["stage.bytes_in_per_warm_job"] = perOp(float64(warmIn), warm)
	out.extra["stage.pulls_per_cold_job"] = perOp(float64(coldPulls), cold)
	return out, nil
}

// perOp divides, reporting 0 when nothing was counted.
func perOp(total, ops float64) float64 {
	if ops == 0 {
		return 0
	}
	return total / ops
}
