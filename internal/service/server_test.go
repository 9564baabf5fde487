package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startTestServer brings up a daemon on a loopback port and returns a client
// pointed at it.
func startTestServer(t *testing.T, root string) (*Server, *Client) {
	t.Helper()
	svc := newTestService(t, root)
	srv := NewServer(svc)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return srv, &Client{Base: addr}
}

func TestHTTPLifecycle(t *testing.T) {
	root := t.TempDir()
	srv, cl := startTestServer(t, root)
	defer srv.Shutdown()

	if !cl.Healthy() {
		t.Fatal("daemon not healthy")
	}

	// The address file points clients at the daemon.
	discovered, err := NewClientFromRoot(root)
	if err != nil {
		t.Fatalf("NewClientFromRoot: %v", err)
	}
	if !discovered.Healthy() {
		t.Fatal("discovered client not healthy")
	}

	j, err := cl.Submit(tinySpec("gzip"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.State != StateQueued && j.State != StateRunning {
		t.Fatalf("fresh job state %s", j.State)
	}

	final, err := cl.Wait(j.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("job ended %s (error %q), want done", final.State, final.Error)
	}
	if len(final.Campaigns) == 0 {
		t.Fatal("done job lists no campaigns")
	}

	jobs, err := cl.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(jobs) != 1 || jobs[0].ID != j.ID {
		t.Fatalf("Jobs = %v, want the one job", jobs)
	}

	// Cancelling a terminal job is a no-op, not an error.
	got, err := cl.Cancel(j.ID)
	if err != nil {
		t.Fatalf("Cancel after done: %v", err)
	}
	if got.State != StateDone {
		t.Fatalf("cancel of a done job changed state to %s", got.State)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, cl := startTestServer(t, t.TempDir())
	defer srv.Shutdown()

	if _, err := cl.Submit(JobSpec{Experiment: "nope"}); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Fatalf("bad submit error = %v, want the rejected experiment named", err)
	}
	if _, err := cl.Job("job-999999"); err == nil ||
		!strings.Contains(err.Error(), "job-999999") {
		t.Fatalf("missing job error = %v", err)
	}
	if _, err := cl.Cancel("job-999999"); err == nil {
		t.Fatal("cancel of a missing job succeeded")
	}

	// Unknown spec fields are rejected — a misspelled field, or one a
	// retired option used to take, must not submit a silently different
	// campaign.
	for _, body := range []string{
		`{"experiment":"fig2","trails":0.5}`,
		`{"experiment":"fig2","compress_journal":true}`,
	} {
		resp, err := http.Post(cl.url("/api/v1/jobs"), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown-field submit %s: status %d, want 400", body, resp.StatusCode)
		}
	}

	spec, err := json.Marshal(tinySpec("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(cl.url("/api/v1/jobs"), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var env struct{ Error string }
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decoding the response: %v", err)
		}
		return resp.StatusCode, env.Error
	}

	// An oversized body is refused once the bound is reached, in the JSON
	// error envelope, without reading the rest.
	huge := `{"experiment":"fig2",` + strings.Repeat(" ", 2*maxSpecBytes) + `"seed":7}`
	if code, msg := post(huge); code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "exceeds") {
		t.Fatalf("oversized submit: status %d (%q), want 413", code, msg)
	}

	// Two concatenated specs are one too many: the second must not be
	// silently dropped while the first runs.
	if code, msg := post(string(spec) + string(spec)); code != http.StatusBadRequest || !strings.Contains(msg, "after the job spec") {
		t.Fatalf("concatenated submit: status %d (%q), want 400", code, msg)
	}
	if jobs, err := cl.Jobs(); err != nil || len(jobs) != 0 {
		t.Fatalf("rejected submits queued jobs: %v, %v", jobs, err)
	}

	// The rejections leave the daemon serving: one spec, trailing
	// whitespace and all, still submits.
	if code, msg := post(string(spec) + "\n"); code != http.StatusCreated {
		t.Fatalf("valid submit after the rejections: status %d (%q), want 201", code, msg)
	}
}

func TestHTTPMetrics(t *testing.T) {
	srv, cl := startTestServer(t, t.TempDir())
	defer srv.Shutdown()

	j, err := cl.Submit(tinySpec("gzip"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := cl.Wait(j.ID, 10*time.Millisecond, nil); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	resp, err := http.Get(cl.url("/metrics"))
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"service_queue_depth",
		"service_jobs_done 1",
		"service_trials_completed_total",
		"campaign_vm_trials_total", // the engine's own telemetry flows through
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHTTPEvents reads the SSE stream: an initial snapshot, then updates
// through to the terminal state.
func TestHTTPEvents(t *testing.T) {
	srv, cl := startTestServer(t, t.TempDir())
	defer srv.Shutdown()

	j, err := cl.Submit(tinySpec("gzip"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	resp, err := http.Get(cl.url("/api/v1/jobs/" + j.ID + "/events"))
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			events = append(events, data)
		}
	}
	if len(events) == 0 {
		t.Fatal("no SSE events received")
	}
	last := events[len(events)-1]
	if !strings.Contains(last, `"state": "done"`) && !strings.Contains(last, `"state":"done"`) {
		t.Fatalf("final event %q does not carry the terminal state", last)
	}
}

func TestShutdownWithdrawsAddr(t *testing.T) {
	root := t.TempDir()
	srv, cl := startTestServer(t, root)
	if !cl.Healthy() {
		t.Fatal("daemon not healthy")
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := ReadAddr(root); err == nil {
		t.Fatal("serve.addr survived a clean shutdown")
	}
	if cl.Healthy() {
		t.Fatal("daemon still answering after shutdown")
	}
}
