package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"broadcastic/internal/jobs"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

func postJob(t *testing.T, url, tenant, body string) (int, jobs.Job, http.Header) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j jobs.Job
	_ = json.NewDecoder(resp.Body).Decode(&j)
	return resp.StatusCode, j, resp.Header
}

func pollDone(t *testing.T, url, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, body, _ := get(t, url+"/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		var j jobs.Job
		if err := json.Unmarshal([]byte(body), &j); err != nil {
			t.Fatalf("job body not JSON: %v (%q)", err, body)
		}
		switch j.State {
		case jobs.Done:
			return j
		case jobs.Failed, jobs.Canceled:
			t.Fatalf("job %s ended %s: %s", id, j.State, j.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Job{}
}

// TestJobsHTTPDeterministicCacheHit is the HTTP-level acceptance pin: the
// same spec submitted twice returns byte-identical results, the second
// time synchronously from the cache (200 vs 202, cacheHit set), with the
// hit visible on /metrics.
func TestJobsHTTPDeterministicCacheHit(t *testing.T) {
	col := telemetry.NewCollector()
	svc := jobs.New(jobs.Options{
		Workers:  2,
		Cache:    jobs.NewCache(16, 0, "", col),
		Recorder: col,
	})
	defer svc.Close()
	mux := NewMux(col, NewBroker())
	AttachJobs(mux, svc)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	spec := `{"experiment":"E10","seed":3,"scale":"quick"}`
	code, first, _ := postJob(t, ts.URL, "", spec)
	if code != http.StatusAccepted {
		t.Fatalf("first POST /jobs = %d, want 202", code)
	}
	if first.Tenant != "default" {
		t.Errorf("tenant defaulted to %q", first.Tenant)
	}
	firstDone := pollDone(t, ts.URL, first.ID)
	if firstDone.CacheHit {
		t.Error("first run claims a cache hit")
	}
	if firstDone.Result == "" {
		t.Fatal("first run has no result")
	}

	code, second, _ := postJob(t, ts.URL, "", spec)
	if code != http.StatusOK {
		t.Fatalf("second POST /jobs = %d, want 200 (cache hit)", code)
	}
	if !second.CacheHit || second.State != jobs.Done {
		t.Fatalf("second submission = %+v, want immediate cache hit", second)
	}
	if second.Result != firstDone.Result {
		t.Fatalf("cached result diverges from computed result:\n%s\n---\n%s",
			second.Result, firstDone.Result)
	}
	if got := col.Counter(telemetry.JobsCacheHits); got != 1 {
		t.Errorf("cache hit counter = %d, want 1", got)
	}
	// The hit is scrapeable.
	_, body, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, "jobs_cache_hits 1\n") {
		t.Errorf("/metrics missing jobs_cache_hits sample:\n%s", body)
	}
}

// TestJobsHTTPBackpressure pins the 429 mapping: a tenant at queue cap is
// rejected with Retry-After while another tenant's submission still lands.
func TestJobsHTTPBackpressure(t *testing.T) {
	release := make(chan struct{})
	svc := jobs.New(jobs.Options{
		Workers:  1,
		QueueCap: 1,
		Run: func(spec jobs.JobSpec, rc jobs.RunContext) ([]byte, error) {
			<-release
			return []byte("x"), nil
		},
	})
	defer func() {
		close(release)
		svc.Close()
	}()
	mux := http.NewServeMux()
	AttachJobs(mux, svc)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Fill: one job on the worker, one queued (cap 1). Distinct seeds keep
	// the specs distinct; there is no cache configured anyway.
	for seed := 1; seed <= 2; seed++ {
		code, _, _ := postJob(t, ts.URL, "loud",
			fmt.Sprintf(`{"experiment":"E10","seed":%d,"scale":"quick"}`, seed))
		if code != http.StatusAccepted {
			t.Fatalf("fill POST %d = %d", seed, code)
		}
		if seed == 1 {
			// Let the worker claim job 1 so job 2 is the sole queued entry.
			waitDepth(t, svc, "loud", 0, 1)
		}
	}
	code, rejected, hdr := postJob(t, ts.URL, "loud", `{"experiment":"E10","seed":9,"scale":"quick"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-cap POST = %d (%+v), want 429", code, rejected)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After hint")
	}
	code, _, _ = postJob(t, ts.URL, "quiet", `{"experiment":"E10","seed":9,"scale":"quick"}`)
	if code != http.StatusAccepted {
		t.Fatalf("other tenant POST = %d, want 202 (per-tenant isolation)", code)
	}
}

// waitDepth blocks until the tenant's queue depth reaches min..max.
func waitDepth(t *testing.T, svc *jobs.Service, tenant string, min, max int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if d := svc.QueueDepth(tenant); d >= min && d <= max {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue depth for %q stuck at %d", tenant, svc.QueueDepth(tenant))
}

func TestJobsHTTPValidationAndLookup(t *testing.T) {
	svc := jobs.New(jobs.Options{Workers: 1})
	defer svc.Close()
	mux := http.NewServeMux()
	AttachJobs(mux, svc)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for _, body := range []string{
		`{"experiment":"E99","scale":"quick"}`, // unknown experiment
		`{"experiment":"E1"}`,                  // missing scale
		`not json`,
		`{"experiment":"E1","scale":"quick","bogus":1}`, // unknown field
		`{"experiment":"E20","scale":"quick","faults":"drop=NaN"}`,
		`{"experiment":"E8","seed":1,"scale":"quick"} trailing garbage`,
		`{"experiment":"E8","seed":1,"scale":"quick"}}`,
		`{"experiment":"E8","seed":1,"scale":"quick"}{}`,
	} {
		code, _, _ := postJob(t, ts.URL, "", body)
		if code != http.StatusBadRequest {
			t.Errorf("POST %q = %d, want 400", body, code)
		}
	}
	code, body, _ := get(t, ts.URL+"/jobs/j999999")
	if code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", code)
	}
	if !strings.Contains(body, "unknown job") {
		t.Errorf("404 body = %q", body)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/j999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", resp.StatusCode)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestJobsHTTPBodyLimit pins the POST /jobs body bound: a body of exactly
// maxSpecBytes is decoded, one byte more answers 413, and a 4 MiB body is
// refused after the handler reads at most the limit plus the one byte
// that shows the body is over it.
func TestJobsHTTPBodyLimit(t *testing.T) {
	svc := jobs.New(jobs.Options{
		Workers: 1,
		Run: func(jobs.JobSpec, jobs.RunContext) ([]byte, error) {
			return []byte("x"), nil
		},
	})
	defer svc.Close()
	mux := http.NewServeMux()
	AttachJobs(mux, svc)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	spec := `{"experiment":"E8","seed":1,"scale":"quick"}`
	padded := spec + strings.Repeat(" ", maxSpecBytes-len(spec))
	if code, _, _ := postJob(t, ts.URL, "", padded); code != http.StatusAccepted {
		t.Errorf("POST of exactly %d bytes = %d, want 202", len(padded), code)
	}
	if code, _, _ := postJob(t, ts.URL, "", padded+" "); code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST of %d bytes = %d, want 413", len(padded)+1, code)
	}

	huge := `{"experiment":"` + strings.Repeat("a", 4<<20) + `"}`
	body := &countingReader{r: strings.NewReader(huge)}
	req := httptest.NewRequest("POST", "/jobs", body)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST of %d bytes = %d, want 413", len(huge), rec.Code)
	}
	if body.n > maxSpecBytes+1 {
		t.Errorf("handler read %d bytes of a %d-byte body, want at most %d", body.n, len(huge), maxSpecBytes+1)
	}
}

func TestJobsHTTPListAndCancel(t *testing.T) {
	release := make(chan struct{})
	svc := jobs.New(jobs.Options{
		Workers: 1,
		Run: func(spec jobs.JobSpec, rc jobs.RunContext) ([]byte, error) {
			<-release
			return []byte("x"), nil
		},
	})
	defer func() {
		close(release)
		svc.Close()
	}()
	mux := http.NewServeMux()
	AttachJobs(mux, svc)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Two jobs: one claims the worker, the second stays queued.
	_, running, _ := postJob(t, ts.URL, "t", `{"experiment":"E10","seed":1,"scale":"quick"}`)
	waitDepth(t, svc, "t", 0, 0)
	_, queued, _ := postJob(t, ts.URL, "t", `{"experiment":"E10","seed":2,"scale":"quick"}`)

	code, body, _ := get(t, ts.URL+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("GET /jobs = %d", code)
	}
	var list []jobs.Job
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("list not JSON: %v", err)
	}
	if len(list) != 2 || list[0].ID != running.ID || list[1].ID != queued.ID {
		t.Fatalf("list = %+v", list)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var canceled jobs.Job
	_ = json.NewDecoder(resp.Body).Decode(&canceled)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || canceled.State != jobs.Canceled {
		t.Fatalf("DELETE queued job = %d %+v", resp.StatusCode, canceled)
	}
}

// TestJobsHTTPRetiredIsGone pins the retirement semantics on the wire:
// GET and DELETE answer 410 Gone for an issued but retired ID, 404 for
// one never issued, and resubmitting a retired job's spec is served from
// the result cache, as the 410 body says.
func TestJobsHTTPRetiredIsGone(t *testing.T) {
	svc := jobs.New(jobs.Options{
		Workers: 1,
		Cache:   jobs.NewCache(16, 0, "", nil),
		Run: func(jobs.JobSpec, jobs.RunContext) ([]byte, error) {
			return []byte("table"), nil
		},
	})
	defer svc.Close()
	mux := http.NewServeMux()
	AttachJobs(mux, svc)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	spec := `{"experiment":"E10","seed":1,"scale":"quick"}`
	_, first, _ := postJob(t, ts.URL, "", spec)
	pollDone(t, ts.URL, first.ID)
	// Retain cache hits, each finished at birth, push it out of the window.
	for range jobs.Retain {
		j, err := svc.SubmitTraced("default", jobs.JobSpec{Experiment: "E10", Seed: 1, Scale: "quick"}, causal.Context{})
		if err != nil || !j.CacheHit {
			t.Fatalf("resubmission = %+v, %v", j, err)
		}
	}

	for _, method := range []string{"GET", "DELETE"} {
		for _, c := range []struct {
			id   string
			code int
			body string
		}{
			{first.ID, http.StatusGone, "result cache"},
			{"j999999", http.StatusNotFound, "unknown job"},
			{"j1", http.StatusNotFound, "unknown job"},
			{"j000002", http.StatusOK, `"state":"done"`},
		} {
			req, _ := http.NewRequest(method, ts.URL+"/jobs/"+c.id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.code || !strings.Contains(string(body), c.body) {
				t.Errorf("%s /jobs/%s = %d %s, want %d with %q", method, c.id, resp.StatusCode, body, c.code, c.body)
			}
		}
	}

	code, again, _ := postJob(t, ts.URL, "", spec)
	if code != http.StatusOK || !again.CacheHit || again.Result != "table" {
		t.Errorf("resubmitting the retired job's spec = %d %+v, want a cache hit", code, again)
	}
}
