package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/trace"
)

// Server is the opt-in introspection endpoint. Routes:
//
//	/healthz        liveness probe ("ok")
//	/metrics        Prometheus text exposition of the registry
//	/trace?n=K      last K decision records as a JSON array
//	                (&cause=ID filters one causality chain,
//	                &format=jsonl for one record per line)
//	/spans?n=K      last K task spans (&trace=HEX filters one trace,
//	                &cause=ID one causality chain, &format=jsonl dumps)
//	/cluster        merged per-stage latency decomposition across the
//	                coordinator and every scrapeable workerd
//	                (&format=jsonl dumps every node's spans)
//	/managers       manager hierarchy with roles, contracts, last decisions
//	/debug/pprof/   the stdlib profiler
//
// It implements the runtime.Runnable shape (Run(ctx) error): Serve until
// ctx cancels, then shut down gracefully. Nothing runs until Run is
// called, so an app built without the -telemetry flag starts no listener
// and no goroutines.
type Server struct {
	reg *Registry
	srv *http.Server
	ln  net.Listener
}

// NewServer builds a server for addr (e.g. ":9090"). Call Listen to bind
// (or let Run do it) and Run to serve.
func NewServer(addr string, reg *Registry) *Server {
	s := &Server{reg: reg}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/spans", s.handleSpans)
	mux.HandleFunc("/cluster", s.handleCluster)
	mux.HandleFunc("/managers", func(w http.ResponseWriter, _ *http.Request) {
		view := reg.Managers()
		if view == nil {
			http.Error(w, "no manager view registered", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return s
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.reg.Tracer()
	if tr == nil {
		http.Error(w, "no decision tracer attached", http.StatusNotFound)
		return
	}
	serveRecords(w, r, tr.Last, tr.ByCause, nil)
}

func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	tt := s.reg.TaskTracer()
	if tt == nil {
		http.Error(w, "no task tracer attached", http.StatusNotFound)
		return
	}
	ring := tt.Ring()
	serveRecords(w, r, ring.Last, ring.ByCause, ring.ByTrace)
}

// serveRecords answers a record query shared by /trace and /spans: the
// newest n records (n absent or 0 means 64), or one causality chain
// (cause=ID, decimal), or — when byTrace is non-nil — one task trace
// (trace=HEX). format=jsonl streams one object per line; otherwise the
// reply is a JSON array, [] when nothing matches.
func serveRecords[T any](w http.ResponseWriter, r *http.Request,
	last func(int) []T, byCause, byTrace func(uint64) []T) {
	q := r.URL.Query()
	n := 64
	if v := q.Get("n"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		if k > 0 {
			n = k
		}
	}
	var recs []T
	switch {
	case byTrace != nil && q.Get("trace") != "":
		var traceID uint64
		if _, err := fmt.Sscanf(q.Get("trace"), "%x", &traceID); err != nil {
			http.Error(w, "bad trace", http.StatusBadRequest)
			return
		}
		recs = byTrace(traceID)
	case q.Get("cause") != "":
		cause, err := strconv.ParseUint(q.Get("cause"), 10, 64)
		if err != nil {
			http.Error(w, "bad cause", http.StatusBadRequest)
			return
		}
		recs = byCause(cause)
	default:
		recs = last(n)
	}
	if q.Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = trace.WriteJSONL(w, recs)
		return
	}
	if recs == nil {
		recs = []T{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(recs)
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	rep, ok := s.reg.Cluster()
	if !ok {
		http.Error(w, "no cluster aggregator registered", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = rep.WriteSpansJSONL(json.NewEncoder(w))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
}

// Listen binds the listener without serving yet, so the caller learns the
// bound address (":0" in tests) and binding errors synchronously.
func (s *Server) Listen() error {
	if s.ln != nil {
		return nil
	}
	addr := s.srv.Addr
	if addr == "" {
		addr = ":0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	s.ln = ln
	return nil
}

// Addr returns the bound address after Listen, the configured one before.
func (s *Server) Addr() string {
	if s.ln != nil {
		return s.ln.Addr().String()
	}
	return s.srv.Addr
}

// Run serves until ctx is canceled, then shuts down gracefully (bounded
// at 3s) and returns nil. It binds first when Listen was not called.
func (s *Server) Run(ctx context.Context) error {
	if err := s.Listen(); err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- s.srv.Serve(s.ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = s.srv.Shutdown(sctx)
		<-errc
		return nil
	}
}
