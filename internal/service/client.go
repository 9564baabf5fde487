package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Client talks to a running daemon over the HTTP API. The CLI's submit /
// status / cancel / jobs subcommands are thin wrappers over it; tests drive
// it directly.
type Client struct {
	// Base is the daemon address, host:port or a full http:// URL.
	Base string
}

// NewClientFromRoot discovers the daemon serving a service root via its
// address file.
func NewClientFromRoot(root string) (*Client, error) {
	addr, err := ReadAddr(root)
	if err != nil {
		return nil, err
	}
	return &Client{Base: addr}, nil
}

func (c *Client) url(path string) string {
	base := c.Base
	if len(base) < 7 || base[:7] != "http://" {
		base = "http://" + base
	}
	return base + path
}

// do issues one API request and decodes the JSON response (or the error
// envelope) into out.
func (c *Client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var envelope struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &envelope) == nil && envelope.Error != "" {
			return fmt.Errorf("daemon: %s", envelope.Error)
		}
		return fmt.Errorf("daemon: %s %s: %s", method, path, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Submit enqueues a job and returns its initial record.
func (c *Client) Submit(spec JobSpec) (*Job, error) {
	var j Job
	if err := c.do("POST", "/api/v1/jobs", spec, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Job fetches one job's current state.
func (c *Client) Job(id string) (*Job, error) {
	var j Job
	if err := c.do("GET", "/api/v1/jobs/"+id, nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Jobs lists every job the daemon knows, in ID order.
func (c *Client) Jobs() ([]*Job, error) {
	var resp struct {
		Jobs []*Job `json:"jobs"`
	}
	if err := c.do("GET", "/api/v1/jobs", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// Cancel asks the daemon to stop a job.
func (c *Client) Cancel(id string) (*Job, error) {
	var j Job
	if err := c.do("POST", "/api/v1/jobs/"+id+"/cancel", nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Healthy reports whether the daemon answers its liveness probe.
func (c *Client) Healthy() bool {
	return c.do("GET", "/api/v1/healthz", nil, nil) == nil
}

// Wait polls until the job reaches a terminal state (done/failed/cancelled)
// and returns its final record. onUpdate, if non-nil, sees each snapshot
// whose state or trial count changed.
func (c *Client) Wait(id string, poll time.Duration, onUpdate func(*Job)) (*Job, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	var lastState JobState
	var lastTrials int64
	for {
		j, err := c.Job(id)
		if err != nil {
			return nil, err
		}
		if onUpdate != nil && (j.State != lastState || j.TrialsDone != lastTrials) {
			onUpdate(j)
			lastState, lastTrials = j.State, j.TrialsDone
		}
		if j.State.Terminal() {
			return j, nil
		}
		time.Sleep(poll)
	}
}
