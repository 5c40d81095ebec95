// Command schedserve exposes the internal/serve fleet registry over
// HTTP/JSON: named scheduling instances with batched churn admission,
// lock-free snapshot reads, and Prometheus-style metrics.
//
// Usage:
//
//	schedserve [-addr HOST:PORT] [-workers N] [-pprof]
//	schedserve -validate-metrics URL
//
// API (see cmd/schedserve/README.md for request/response shapes and curl
// examples):
//
//	POST   /v1/instances               create an instance (networks, demands, options)
//	GET    /v1/instances               list instance names
//	DELETE /v1/instances/{id}          delete an instance
//	POST   /v1/instances/{id}/churn    submit demand arrivals/departures; returns assigned ids + epoch
//	GET    /v1/instances/{id}/snapshot latest published solve round (lock-free read)
//	GET    /v1/instances/{id}/stats    actor round accounting + session incremental-state counters
//	GET    /metrics                    fleet metrics, Prometheus text format
//	GET    /healthz                    liveness
//
// With -pprof the standard live-profiling surface is mounted as well:
//
//	GET    /debug/pprof/               net/http/pprof index (profile, heap, trace, ...)
//	GET    /debug/vars                 fleet stats + histogram snapshots, JSON
//
// -validate-metrics URL runs as a scrape client instead of a server: it
// fetches URL and checks the response against the Prometheus text
// exposition rules (serve.ValidateExposition), exiting non-zero on the
// first violation. CI smoke tests use it to keep WriteMetrics honest.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"

	treesched "treesched"
	"treesched/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers  = flag.Int("workers", runtime.NumCPU(), "shared solve worker pool size (rounds in flight across all instances)")
		pprofOn  = flag.Bool("pprof", false, "mount /debug/pprof (live profiling) and /debug/vars (JSON stats)")
		validate = flag.String("validate-metrics", "", "fetch URL, validate it as Prometheus text exposition, and exit")
	)
	flag.Parse()
	if *validate != "" {
		if err := validateMetricsURL(*validate); err != nil {
			fmt.Fprintln(os.Stderr, "schedserve: validate-metrics:", err)
			os.Exit(1)
		}
		fmt.Printf("schedserve: %s: exposition OK\n", *validate)
		return
	}
	reg := serve.NewRegistry(*workers)
	defer reg.Close()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newMux(reg, *pprofOn),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("schedserve listening on %s (pool=%d pprof=%v)", *addr, *workers, *pprofOn)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "schedserve:", err)
		os.Exit(1)
	}
}

// validateMetricsURL scrapes url once and validates the body.
func validateMetricsURL(url string) error {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return serve.ValidateExposition(resp.Body)
}

// server binds the HTTP surface to one registry.
type server struct {
	reg *serve.Registry
}

// newMux builds the route table; factored out so tests serve it through
// httptest. The debug surface (net/http/pprof + /debug/vars) is opt-in —
// profiling endpoints can stall the world and the vars dump takes every
// actor's stats lock, so they stay off unless -pprof asked for them.
func newMux(reg *serve.Registry, debug bool) *http.ServeMux {
	s := &server{reg: reg}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WriteMetrics(w)
	})
	if debug {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := reg.WriteVars(w); err != nil {
				log.Printf("schedserve: write vars: %v", err)
			}
		})
	}
	mux.HandleFunc("POST /v1/instances", s.createInstance)
	mux.HandleFunc("GET /v1/instances", s.listInstances)
	mux.HandleFunc("DELETE /v1/instances/{id}", s.deleteInstance)
	mux.HandleFunc("POST /v1/instances/{id}/churn", s.churn)
	mux.HandleFunc("GET /v1/instances/{id}/snapshot", s.snapshot)
	mux.HandleFunc("GET /v1/instances/{id}/stats", s.stats)
	return mux
}

// demandSpec is one demand in create and churn requests.
type demandSpec struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	Profit float64 `json:"profit"`
	Height float64 `json:"height,omitempty"` // 0 means 1 (unit)
	Access []int   `json:"access,omitempty"` // empty means all networks
}

// instanceSpec is the POST /v1/instances body.
type instanceSpec struct {
	Name     string       `json:"name,omitempty"`
	Vertices int          `json:"vertices"`
	Trees    [][][2]int   `json:"trees"` // one edge list per tree-network
	Demands  []demandSpec `json:"demands"`
	Options  optionsSpec  `json:"options,omitempty"`
}

// optionsSpec selects solver options; zero values take treesched defaults.
type optionsSpec struct {
	Epsilon     float64 `json:"epsilon,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Parallelism int     `json:"parallelism,omitempty"`
	// Algorithm is "auto" (default) or "distributed-unit" (required for
	// sub-unit heights); sessions support no other algorithms.
	Algorithm string `json:"algorithm,omitempty"`
}

// churnSpec is the POST /v1/instances/{id}/churn body.
type churnSpec struct {
	Remove []int        `json:"remove,omitempty"`
	Add    []demandSpec `json:"add,omitempty"`
}

// instanceParallelism resolves a new instance's Parallelism: the number of
// shard goroutines each of its solve rounds may start, one per runnable
// conflict component up to this value. The registry already runs up to
// workers rounds at once, so each round's budget is an equal share of the
// machine, max(1, procs/workers). An unset (below 1) request takes the
// budget, and a larger one is clamped to it: taken as given, a client
// value could start one goroutine per component every round.
func instanceParallelism(requested, procs, workers int) int {
	budget := max(1, procs/workers)
	if requested < 1 || requested > budget {
		return budget
	}
	return requested
}

// maxBodyBytes bounds a create or churn request body. A 100,000-demand
// instance spec is about 5 MB of JSON, so the bound leaves ample room while
// keeping one request from making the server read without limit.
const maxBodyBytes = 64 << 20

// decodeBody decodes the JSON request body, at most maxBodyBytes of it,
// into v. On failure it writes the error response — 413 for an oversized
// body, 400 for a malformed one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
	} else {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	}
	return false
}

func (s *server) createInstance(w http.ResponseWriter, r *http.Request) {
	var spec instanceSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	opts := treesched.Options{
		Epsilon:     spec.Options.Epsilon,
		Seed:        spec.Options.Seed,
		Parallelism: instanceParallelism(spec.Options.Parallelism, runtime.GOMAXPROCS(0), s.reg.Workers()),
	}
	switch spec.Options.Algorithm {
	case "", "auto":
		opts.Algorithm = treesched.Auto
	case "distributed-unit":
		opts.Algorithm = treesched.DistributedUnit
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unsupported algorithm %q (want auto or distributed-unit)", spec.Options.Algorithm))
		return
	}
	inst := treesched.NewInstance(spec.Vertices)
	for _, edges := range spec.Trees {
		if _, err := inst.AddTree(edges); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	ids := make([]int, 0, len(spec.Demands))
	for _, d := range spec.Demands {
		var dopts []treesched.DemandOption
		if d.Height != 0 {
			dopts = append(dopts, treesched.Height(d.Height))
		}
		if len(d.Access) > 0 {
			dopts = append(dopts, treesched.Access(d.Access...))
		}
		ids = append(ids, inst.AddDemand(d.U, d.V, d.Profit, dopts...))
	}
	a, err := s.reg.Create(spec.Name, inst, opts)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, serve.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, err)
		return
	}
	snap := a.Snapshot()
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":    a.Name(),
		"demands": ids,
		"epoch":   snap.Epoch,
		"profit":  snap.Result.Profit,
	})
}

func (s *server) listInstances(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"instances": s.reg.List()})
}

func (s *server) deleteInstance(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Delete(r.PathValue("id")); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// churn submits one batch of departures/arrivals; the response arrives
// after the round that carried it, so the returned epoch is already
// published when the client reads it.
func (s *server) churn(w http.ResponseWriter, r *http.Request) {
	a, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no instance %q", r.PathValue("id")))
		return
	}
	var spec churnSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	c := treesched.Churn{Remove: spec.Remove}
	for _, d := range spec.Add {
		c.Add = append(c.Add, treesched.NewDemand{U: d.U, V: d.V, Profit: d.Profit, Height: d.Height, Access: d.Access})
	}
	ids, epoch, err := a.Submit(c)
	if err != nil {
		switch {
		case errors.Is(err, serve.ErrClosed):
			writeErr(w, http.StatusGone, err)
		case errors.Is(err, serve.ErrSolveFailed):
			// The churn WAS applied; return the assigned ids with the
			// error so the client does not retry an applied batch.
			writeJSON(w, http.StatusInternalServerError, map[string]any{
				"error": err.Error(), "ids": ids, "applied": true,
			})
		default:
			writeErr(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ids": ids, "epoch": epoch})
}

// snapshotBody is the JSON shape of one published round.
type snapshotBody struct {
	Epoch       uint64           `json:"epoch"`
	Profit      float64          `json:"profit"`
	DualBound   float64          `json:"dual_bound"`
	Guarantee   float64          `json:"guarantee"`
	Live        int              `json:"live"`
	Accepted    []int            `json:"accepted"`
	Rejected    []int            `json:"rejected"`
	Assignments []assignmentBody `json:"assignments"`
	Batch       int              `json:"batch"`
	LatencyMS   float64          `json:"latency_ms"`
	At          time.Time        `json:"at"`
}

type assignmentBody struct {
	Demand  int `json:"demand"`
	Network int `json:"network"`
}

func (s *server) snapshot(w http.ResponseWriter, r *http.Request) {
	a, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no instance %q", r.PathValue("id")))
		return
	}
	snap := a.Snapshot()
	body := snapshotBody{
		Epoch:     snap.Epoch,
		Profit:    snap.Result.Profit,
		DualBound: snap.Result.DualBound,
		Guarantee: snap.Result.Guarantee,
		Live:      snap.Live,
		Accepted:  snap.Accepted,
		Rejected:  snap.Rejected(),
		Batch:     snap.Batch,
		LatencyMS: float64(snap.Latency) / float64(time.Millisecond),
		At:        snap.At,
	}
	if body.Accepted == nil {
		body.Accepted = []int{}
	}
	if body.Rejected == nil {
		body.Rejected = []int{}
	}
	body.Assignments = make([]assignmentBody, 0, len(snap.Result.Assignments))
	for _, asg := range snap.Result.Assignments {
		body.Assignments = append(body.Assignments, assignmentBody{Demand: asg.Demand, Network: asg.Network})
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	a, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no instance %q", r.PathValue("id")))
		return
	}
	st := a.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"name":                 st.Name,
		"epoch":                st.Epoch,
		"rounds":               st.Rounds,
		"submissions":          st.Submissions,
		"failed":               st.Failed,
		"round_latency_ms_sum": float64(st.TotalLatency) / float64(time.Millisecond),
		"round_latency_ms_max": float64(st.MaxLatency) / float64(time.Millisecond),
		"session": map[string]any{
			"live":                st.Session.Live,
			"items":               st.Session.Items,
			"updates":             st.Session.Updates,
			"solves":              st.Session.Solves,
			"reprepares":          st.Session.Reprepares,
			"last_removed":        st.Session.LastRemoved,
			"last_added":          st.Session.LastAdded,
			"warm_solves":         st.Session.WarmSolves,
			"cold_solves":         st.Session.ColdSolves,
			"components_replayed": st.Session.ComponentsReplayed,
			"components_resolved": st.Session.ComponentsResolved,
		},
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("schedserve: encode response: %v", err)
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
