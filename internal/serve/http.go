package serve

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"metaleak/internal/experiments"
)

// The HTTP surface (DESIGN.md §12). All /v1 routes require the bearer
// token when one is configured; /healthz never does (probes must not
// hold secrets). Routes use the Go 1.22 method/pattern mux, so the
// method mismatch and path variable handling come from net/http.

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/sweeps", s.auth(s.handleSubmit))
	mux.HandleFunc("GET /v1/status", s.auth(s.handleStatus))
	mux.HandleFunc("GET /v1/sweeps/{id}", s.auth(s.handleSweep))
	mux.HandleFunc("GET /v1/sweeps/{id}/rows", s.auth(s.handleRows))
	mux.HandleFunc("GET /v1/sweeps/{id}/csv", s.auth(s.handleCSV))
	mux.HandleFunc("GET /v1/sweeps/{id}/json", s.auth(s.handleJSON))
	return mux
}

// auth wraps a handler with the bearer-token check. The comparison is
// constant-time; a mismatch reveals nothing but the 401.
func (s *Server) auth(next http.HandlerFunc) http.HandlerFunc {
	if s.cfg.Token == "" {
		return next
	}
	return func(w http.ResponseWriter, req *http.Request) {
		got, ok := strings.CutPrefix(req.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(s.cfg.Token)) != 1 {
			http.Error(w, "authentication failed: bad or missing bearer token", http.StatusUnauthorized)
			return
		}
		next(w, req)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleSubmit accepts a SweepAxes JSON document and enqueues it,
// deduplicating in-flight grids by fingerprint. 202 on enqueue, 200
// when an existing queued/running run was reused.
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var axes experiments.SweepAxes
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&axes); err != nil {
		http.Error(w, "bad sweep spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	st, reused, err := s.Submit(axes)
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "draining") {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	code := http.StatusAccepted
	if reused {
		code = http.StatusOK
	}
	writeJSON(w, code, struct {
		Status
		Reused bool
	}{st, reused})
}

// handleStatus lists every sweep in submission order, plus the active
// worker listener address external workers can -connect to.
func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := struct {
		Draining   bool
		WorkerAddr string `json:",omitempty"`
		Sweeps     []Status
	}{Draining: s.draining, WorkerAddr: s.workerAddr, Sweeps: []Status{}}
	for _, id := range s.order {
		out.Sweeps = append(out.Sweeps, s.statusLocked(s.sweeps[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSweep(w http.ResponseWriter, req *http.Request) {
	r, ok := s.get(req.PathValue("id"))
	if !ok {
		http.Error(w, "no such sweep", http.StatusNotFound)
		return
	}
	s.mu.Lock()
	st := s.statusLocked(r)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleRows streams the run's rows as NDJSON in arrival order
// (cache-served rows up front in grid order, then live rows as they
// settle), holding the stream open until the run reaches a terminal
// state or the client disconnects. Each row carries its grid Index, so
// clients needing grid order sort on it.
func (s *Server) handleRows(w http.ResponseWriter, req *http.Request) {
	r, ok := s.get(req.PathValue("id"))
	if !ok {
		http.Error(w, "no such sweep", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Bridge the client's disconnect into the cond the row appends
	// broadcast on.
	stop := context.AfterFunc(req.Context(), s.cond.Broadcast)
	defer stop()

	next := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for next < len(r.live) {
			row := r.live[next]
			next++
			s.mu.Unlock()
			err := enc.Encode(row)
			if flusher != nil {
				flusher.Flush()
			}
			s.mu.Lock()
			if err != nil {
				return
			}
		}
		if req.Context().Err() != nil {
			return
		}
		if r.State != StateQueued && r.State != StateRunning {
			return
		}
		s.cond.Wait()
	}
}

// handleCSV renders the finished run as `metaleak sweep` CSV (wide, or
// long with ?long=1). With ?wait=1 it blocks until the run finishes;
// otherwise an unfinished run is a 409. The bytes are produced by the
// same writer the CLI uses — byte-identical by construction.
func (s *Server) handleCSV(w http.ResponseWriter, req *http.Request) {
	s.serveRendered(w, req, func(rows []experiments.SweepRow, r *sweepRun) error {
		w.Header().Set("Content-Type", "text/csv")
		return experiments.WriteRowsCSV(w, rows, req.URL.Query().Get("long") == "1")
	})
}

// handleJSON renders the finished run as `metaleak sweep -json`'s
// document (rows plus per-point aggregates), same writer as the CLI.
func (s *Server) handleJSON(w http.ResponseWriter, req *http.Request) {
	s.serveRendered(w, req, func(rows []experiments.SweepRow, r *sweepRun) error {
		w.Header().Set("Content-Type", "application/json")
		return experiments.WriteSweepJSON(w, r.Axes, rows)
	})
}

func (s *Server) serveRendered(w http.ResponseWriter, req *http.Request, render func([]experiments.SweepRow, *sweepRun) error) {
	r, ok := s.get(req.PathValue("id"))
	if !ok {
		http.Error(w, "no such sweep", http.StatusNotFound)
		return
	}
	var state string
	if req.URL.Query().Get("wait") == "1" {
		var err error
		state, err = s.waitDone(req.Context(), r)
		if err != nil {
			return // client went away while waiting
		}
	} else {
		s.mu.Lock()
		state = r.State
		s.mu.Unlock()
		if state == StateQueued || state == StateRunning {
			http.Error(w, fmt.Sprintf("sweep %s is %s; retry with ?wait=1", r.ID, state), http.StatusConflict)
			return
		}
	}
	if state != StateDone {
		s.mu.Lock()
		msg := r.Err
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("sweep %s %s: %s", r.ID, state, msg), http.StatusInternalServerError)
		return
	}
	s.mu.Lock()
	rows := r.gridRows()
	s.mu.Unlock()
	render(rows, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
