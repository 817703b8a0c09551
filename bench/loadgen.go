package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"broadcastic/internal/jobs"
	"broadcastic/internal/telemetry/causal"
)

type outcome uint8

const (
	pending outcome = iota
	ok              // result in the client's hands and verified
	failed          // transport error, non-2xx answer, failed job or timeout
	wrong           // result differs from the reference bytes
)

// jobTimeout bounds how long a client waits for one job to finish.
const jobTimeout = 60 * time.Second

// op is one client operation: a submission and, unless it is answered
// from the cache, the fetch of its result. One client goroutine owns it.
type op struct {
	idx     int64
	req     request
	t0, end time.Time // sent, and result in hand
	outcome outcome
	bytes   int
	trace   causal.TraceID
	job     string
	reqs    []requestSpan // client-side request intervals (traced passes)
}

func (o *op) finish(out outcome) { o.outcome, o.end = out, time.Now() }

// jobView is the part of the jobs.Job JSON snapshot the client reads.
type jobView struct {
	ID       string     `json:"id"`
	Key      string     `json:"key"`
	State    jobs.State `json:"state"`
	CacheHit bool       `json:"cacheHit"`
	Result   string     `json:"result"`
	TraceID  string     `json:"traceId"`
}

// loadgen is the client side of one run.
type loadgen struct {
	sys      *system
	next     *atomic.Int64     // op counter, shared by every pass of a run
	expected map[string]string // cache key -> reference result of every spec a hit may answer
	sample   *reservoir
	win      *window // the current pass's measured window
}

// call makes one request on the op's behalf and decodes a job snapshot
// from any 2xx answer.
func (g *loadgen) call(o *op, method, path string, body []byte) (int, jobView, error) {
	var job jobView
	req, err := http.NewRequest(method, g.sys.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, job, err
	}
	req.Header.Set("X-Tenant", o.req.tenant)
	if g.sys.spans != nil {
		req.Header.Set(opHeader, strconv.FormatInt(o.idx, 10))
	}
	start := time.Now()
	resp, err := g.sys.client.Do(req)
	if err != nil {
		return 0, job, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	o.bytes += len(data)
	if g.sys.spans != nil {
		epoch := g.sys.fr.Epoch()
		o.reqs = append(o.reqs, requestSpan{method, interval{int64(start.Sub(epoch)), int64(end.Sub(epoch))}})
	}
	if err != nil {
		return 0, job, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, &job); err != nil {
			return 0, job, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, job, nil
}

// do sends the op and, if it was queued, waits for its run to complete
// and fetches the result.
func (g *loadgen) do(o *op) {
	o.t0 = time.Now()
	if !g.submit(o) {
		return
	}
	done := make(chan struct{})
	g.sys.done.watch(o.trace, func() { close(done) })
	select {
	case <-done:
		out, result := g.get(o)
		o.finish(out)
		if out == ok && g.win.contains(o.t0) {
			g.sample.offer(o.req.spec, result)
		}
	case <-time.After(jobTimeout):
		o.finish(failed)
	}
}

// submit POSTs the op's spec. It reports true when the job was queued and
// its result must be fetched; otherwise the op is finished.
func (g *loadgen) submit(o *op) bool {
	body, err := json.Marshal(o.req.spec)
	if err != nil {
		o.finish(failed)
		return false
	}
	status, job, err := g.call(o, http.MethodPost, "/jobs", body)
	switch {
	case err != nil:
		o.finish(failed)
	case status == http.StatusOK && job.CacheHit:
		if ref, known := g.expected[job.Key]; known && ref == job.Result {
			o.finish(ok)
		} else {
			o.finish(wrong)
		}
	case status == http.StatusAccepted:
		t, err := causal.ParseTraceID(job.TraceID)
		if err != nil {
			o.finish(failed)
			return false
		}
		o.trace, o.job = t, job.ID
		return true
	default:
		o.finish(failed)
	}
	return false
}

// get GETs a job whose run has completed, retrying briefly while the
// service has not yet published the outcome.
func (g *loadgen) get(o *op) (outcome, string) {
	backoff := 20 * time.Microsecond
	deadline := time.Now().Add(jobTimeout)
	for {
		status, job, err := g.call(o, http.MethodGet, "/jobs/"+o.job, nil)
		if err != nil || status != http.StatusOK {
			return failed, ""
		}
		switch job.State {
		case jobs.Done:
			if job.Result == "" {
				return wrong, ""
			}
			return ok, job.Result
		case jobs.Failed, jobs.Canceled:
			return failed, ""
		}
		if time.Now().After(deadline) {
			return failed, ""
		}
		time.Sleep(backoff)
		if backoff < time.Millisecond {
			backoff *= 2
		}
	}
}

// closedLoop runs nproc clients, each sending its next request only once
// the previous result is in hand, until the window has closed.
func (g *loadgen) closedLoop(workload string, seed uint64, nproc int) []*op {
	perClient := make([][]*op, nproc)
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !g.win.closedBy(time.Now()) {
				j := g.next.Add(1) - 1
				o := &op{idx: j, req: closedRequest(workload, seed, uint64(j))}
				perClient[c] = append(perClient[c], o)
				g.do(o)
			}
		}()
	}
	wg.Wait()
	var ops []*op
	for _, c := range perClient {
		ops = append(ops, c...)
	}
	return ops
}

// reservoir keeps a seeded uniform sample of the cold results served in
// the measured window, to be recomputed after it.
type reservoir struct {
	mu    sync.Mutex
	r     *rand.Rand
	seen  int
	items []sampled
}

type sampled struct {
	spec   jobs.JobSpec
	result string
}

// recheckCount is how many cold results each run recomputes.
const recheckCount = 16

func newReservoir(seed uint64) *reservoir {
	return &reservoir{r: rand.New(rand.NewPCG(seed, 0x5eed))}
}

func (s *reservoir) offer(spec jobs.JobSpec, result string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++
	if len(s.items) < recheckCount {
		s.items = append(s.items, sampled{spec, result})
	} else if k := s.r.IntN(s.seen); k < recheckCount {
		s.items[k] = sampled{spec, result}
	}
}

// recheck recomputes every sampled spec directly with jobs.RunExperiment
// and counts results that are not byte-identical to what was served.
func (s *reservoir) recheck() (checked, mismatched int) {
	for _, it := range s.items {
		out, err := jobs.RunExperiment(it.spec, jobs.RunContext{})
		if err != nil || string(out) != it.result {
			mismatched++
		}
	}
	return len(s.items), mismatched
}
