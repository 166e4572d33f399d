package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"

	"gridproxy/internal/proto"
)

const (
	// jobsRate is the open-loop arrival rate. At about 6 LAN connections
	// per 4-rank job left in TIME-WAIT for 60 s, 20 jobs/s holds about
	// 7 200 sockets, under a third of the default 28 232 ephemeral ports.
	jobsRate = 20.0
	// jobsConns caps the keep-alive HTTP connections to the gateway.
	jobsConns = 2
	// pollEvery is how often the benchmark reads site A's job table.
	pollEvery = time.Millisecond
	// drainLimit bounds the wait for jobs still running at window end.
	drainLimit = 60 * time.Second
)

// jobsRunner drives the jobs workload: tiny cross-site ring jobs
// submitted through the gateway by a few users at seeded Poisson
// arrival times.
type jobsRunner struct {
	g      *benchGrid
	seed   int64
	client *http.Client
	tokens []string
}

func startJobs(ctx context.Context, g *benchGrid, seed int64) (runner, error) {
	r := &jobsRunner{
		g:    g,
		seed: seed,
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     jobsConns,
			MaxIdleConnsPerHost: jobsConns,
			DisableCompression:  true,
		}},
	}
	for i := 0; i < numUsers; i++ {
		var reply struct {
			Token string `json:"token"`
		}
		body := map[string]string{"user": userName(i), "password": userPassword(i)}
		if err := r.call(ctx, http.MethodPost, "/api/login", "", body, http.StatusOK, &reply); err != nil {
			r.close()
			return nil, fmt.Errorf("login %s: %w", userName(i), err)
		}
		r.tokens = append(r.tokens, reply.Token)
	}
	return r, nil
}

func (r *jobsRunner) close() { r.client.CloseIdleConnections() }

// call sends one JSON request to the gateway and decodes the reply.
func (r *jobsRunner) call(ctx context.Context, method, path, token string, body any, want int, reply any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.g.gateURL+path, rd)
	if err != nil {
		return err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%w: %s %s: status %d: %s", errCheck, method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, reply)
}

var ringJob = map[string]any{"program": "ring", "args": []string{"1"}, "procs": 4}

// job is one arrival and what became of it.
type job struct {
	op        int64
	user      int
	due       time.Time
	sent      time.Time
	submitted time.Time
	done      time.Time
	id        string
	err       error
}

func (r *jobsRunner) warmup(ctx context.Context) error {
	for i := range r.tokens {
		j := &job{user: i, due: time.Now()}
		r.submit(ctx, j, nil)
		if j.err != nil {
			return j.err
		}
		if err := r.await(ctx, j); err != nil {
			return err
		}
		if err := r.confirm(ctx, j, nil); err != nil {
			return err
		}
	}
	return nil
}

// submit posts the job and records when the gateway answered 2xx,
// which means the launch committed at both sites.
func (r *jobsRunner) submit(ctx context.Context, j *job, tr *tracer) {
	var reply struct {
		JobID string `json:"job_id"`
	}
	j.sent = time.Now()
	err := r.call(ctx, http.MethodPost, "/api/jobs", r.tokens[j.user], ringJob, http.StatusCreated, &reply)
	j.submitted = time.Now()
	tr.record("gate.submit", j.op, "", j.sent, j.submitted)
	if err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return
	}
	j.id = reply.JobID
}

// await polls site A's job table until the job ends (warm-up only; the
// measured run shares one poller across all jobs).
func (r *jobsRunner) await(ctx context.Context, j *job) error {
	a := r.g.sites[0].proxy
	for {
		state, detail, err := a.JobStatus(j.id)
		if err != nil {
			return err
		}
		switch state {
		case proto.JobDone:
			j.done = time.Now()
			return nil
		case proto.JobFailed, proto.JobCancelled:
			return fmt.Errorf("%w: job %s ended %v: %s", errCheck, j.id, state, detail)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollEvery):
		}
	}
}

// confirm reads the job once through the gateway, which must agree that
// it is done.
func (r *jobsRunner) confirm(ctx context.Context, j *job, tr *tracer) error {
	var reply struct {
		State string `json:"state"`
	}
	start := time.Now()
	err := r.call(ctx, http.MethodGet, "/api/jobs/"+j.id, r.tokens[j.user], nil, http.StatusOK, &reply)
	tr.record("gate.get", j.op, "", start, time.Now())
	if err != nil {
		return fmt.Errorf("confirm: %w", err)
	}
	return checkJobState(j.id, reply.State)
}

// arrivals draws n arrival offsets of a Poisson process over d: given
// their count, Poisson arrivals are uniform order statistics.
func arrivals(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *jobsRunner) run(ctx context.Context, d time.Duration, tr *tracer) (*outcome, error) {
	rng := rand.New(rand.NewPCG(uint64(r.seed), 0x6a6f6273))
	offsets := arrivals(rng, int(jobsRate*d.Seconds()), d)
	jobs := make([]*job, len(offsets))
	for i := range jobs {
		jobs[i] = &job{op: int64(i + 1), user: rng.IntN(numUsers)}
	}

	var (
		mu      sync.Mutex
		pending = make(map[string]*job)
		stopped bool // the poller has stopped; guarded by mu
		wg      sync.WaitGroup
		late    []float64
	)
	finish := func(j *job) {
		if j.err == nil {
			j.err = r.confirm(ctx, j, tr)
		}
		wg.Done()
	}
	stopPoll := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		a := r.g.sites[0].proxy
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
			}
			mu.Lock()
			for id, j := range pending {
				state, detail, err := a.JobStatus(id)
				switch {
				case err != nil:
					j.err = fmt.Errorf("job status: %w", err)
				case state == proto.JobDone:
					j.done = time.Now()
				case state == proto.JobFailed || state == proto.JobCancelled:
					j.err = fmt.Errorf("%w: job %s ended %v: %s", errCheck, id, state, detail)
				default:
					continue
				}
				delete(pending, id)
				go finish(j)
			}
			mu.Unlock()
		}
	}()

	start := time.Now()
	for _, j := range jobs {
		j.due = start.Add(offsets[j.op-1])
		if wait := time.Until(j.due); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, float64(time.Since(j.due))/1e6)
		wg.Add(1)
		go func(j *job) {
			r.submit(ctx, j, tr)
			if j.err == nil {
				mu.Lock()
				if !stopped {
					pending[j.id] = j
					mu.Unlock()
					return
				}
				mu.Unlock()
				// No poller will see this job end.
				j.err = fmt.Errorf("%w: job %s submitted after the %v drain limit", errCheck, j.id, drainLimit)
			}
			wg.Done()
		}(j)
	}
	allDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(allDone)
	}()
	var timedOut bool
	select {
	case <-allDone:
	case <-time.After(drainLimit):
		timedOut = true
	}
	close(stopPoll)
	<-pollDone
	if timedOut {
		// Jobs the poller never saw end are failures; wait for the
		// confirmations already started.
		mu.Lock()
		stopped = true
		for id, j := range pending {
			j.err = fmt.Errorf("%w: job %s still running after %v", errCheck, id, drainLimit)
			delete(pending, id)
			wg.Done()
		}
		mu.Unlock()
		<-allDone
	}

	out := &outcome{
		attempted:  len(jobs),
		apps:       make(map[string]int64),
		turnaround: make(map[string]time.Duration),
		extra:      map[string]float64{},
	}
	var submitMs []float64
	for _, j := range jobs {
		if j.id != "" {
			out.apps[j.id] = j.op
			out.jobs++
		}
		if j.err != nil {
			out.failed++
			fmt.Printf("perfbench: jobs: %v\n", j.err)
			continue
		}
		out.ops++
		out.work = append(out.work, float64(j.done.Sub(j.due))/1e6)
		out.turnaround[j.id] = j.done.Sub(j.sent)
		submitMs = append(submitMs, float64(j.submitted.Sub(j.sent))/1e6)
		tr.record("bench.job", j.op, "", j.due, j.done)
	}
	out.req = submitMs
	out.extra["gen.late_ms_p99"] = quantileSorted(sortedCopy(late), 0.99)
	return out, nil
}
