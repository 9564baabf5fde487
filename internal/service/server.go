package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// maxSpecBytes bounds a submit body. A job spec is well under 1 KiB; the
// bound stops a client from making the daemon read an arbitrarily large
// body before it is rejected.
const maxSpecBytes = 1 << 20

// readHeaderTimeout bounds how long a client may take to send a request's
// headers, so a stalled client cannot hold a connection open forever.
const readHeaderTimeout = 10 * time.Second

// Server wraps a Service in the HTTP API:
//
//	POST /api/v1/jobs           submit a JobSpec, returns the Job
//	GET  /api/v1/jobs           list all jobs
//	GET  /api/v1/jobs/{id}      one job's state and progress
//	POST /api/v1/jobs/{id}/cancel
//	GET  /api/v1/jobs/{id}/events   SSE stream of job snapshots
//	GET  /api/v1/healthz        liveness
//	GET  /metrics               Prometheus text exposition
//
// Errors are a JSON envelope {"error": "..."} with a 4xx/5xx status. A
// submit body holds exactly one spec of at most maxSpecBytes: a larger body
// is refused with 413, and bytes after the spec with 400.
type Server struct {
	svc *Service
	hs  *http.Server
	ln  net.Listener
	err chan error
}

// NewServer builds the HTTP front-end for a service.
func NewServer(svc *Service) *Server {
	s := &Server{svc: svc, err: make(chan error, 1)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.hs = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	return s
}

// Start binds addr (":0" picks a free port), publishes the bound address in
// the service root for client discovery, and serves in the background.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	bound := ln.Addr().String()
	if err := s.svc.st.writeAddr(bound); err != nil {
		ln.Close()
		return "", err
	}
	go func() {
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.err <- err
		}
		close(s.err)
	}()
	return bound, nil
}

// Wait blocks until the HTTP server stops, returning any serve error.
func (s *Server) Wait() error {
	err, ok := <-s.err
	if !ok {
		return nil
	}
	return err
}

// Shutdown stops gracefully: the service drains its shards and re-queues the
// running job, then the listener closes and the address file is withdrawn.
func (s *Server) Shutdown() error {
	svcErr := s.svc.Close()
	s.hs.Close() // SSE streams hold connections open; a drain would never end
	s.svc.st.removeAddr()
	if err := s.Wait(); err != nil {
		return err
	}
	return svcErr
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeSpec reads the one job spec a submission body holds. Unknown fields
// are errors, and so is anything after the spec: a second spec would
// otherwise be silently dropped.
func decodeSpec(body io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	switch _, tail := dec.Token(); tail {
	case io.EOF:
		return spec, nil
	case nil:
		return spec, errors.New("unexpected data after the job spec")
	default:
		return spec, tail
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("job spec exceeds %d bytes", tooLarge.Limit))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	j, err := s.svc.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, j)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.svc.Jobs()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.svc.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.svc.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// handleEvents streams job snapshots as server-sent events: one `state`
// event whenever the job's state or trial count changes, ending after the
// terminal snapshot (or on disconnect/daemon shutdown).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.svc.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %s", id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(j *Job) {
		data, _ := json.Marshal(j)
		fmt.Fprintf(w, "event: state\ndata: %s\n\n", data)
		fl.Flush()
	}
	emit(j)
	lastState, lastTrials := j.State, j.TrialsDone
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for !lastState.Terminal() {
		select {
		case <-r.Context().Done():
			return
		case <-s.svc.ShuttingDown():
			return
		case <-tick.C:
		}
		j, ok := s.svc.Job(id)
		if !ok {
			return
		}
		if j.State != lastState || j.TrialsDone != lastTrials {
			emit(j)
			lastState, lastTrials = j.State, j.TrialsDone
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "root": s.svc.Root()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.svc.cfg.Obs.Snapshot().WritePrometheus(w); err != nil {
		writeError(w, http.StatusInternalServerError, err)
	}
}
