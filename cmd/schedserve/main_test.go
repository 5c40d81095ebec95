package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"treesched/internal/serve"
)

// startTestServer serves the real mux over httptest.
func startTestServer(t *testing.T) (*httptest.Server, *serve.Registry) {
	return startTestServerDebug(t, false)
}

func startTestServerDebug(t *testing.T, debug bool) (*httptest.Server, *serve.Registry) {
	t.Helper()
	reg := serve.NewRegistry(2)
	srv := httptest.NewServer(newMux(reg, debug))
	t.Cleanup(func() {
		srv.Close()
		reg.Close()
	})
	return srv, reg
}

func do(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// TestInstanceParallelism pins how a client's parallelism resolves
// against the per-instance budget max(1, GOMAXPROCS/registry workers).
func TestInstanceParallelism(t *testing.T) {
	for _, tc := range []struct {
		requested, procs, workers, want int
	}{
		{0, 8, 2, 4},       // unset: the budget
		{-3, 8, 2, 4},      // below 1 reads as unset
		{1, 8, 2, 1},       // under the budget: as given
		{4, 8, 2, 4},       // exactly the budget
		{1 << 30, 8, 2, 4}, // oversized: clamped
		{0, 2, 4, 1},       // more workers than CPUs: at least 1
		{1 << 30, 2, 4, 1},
	} {
		if got := instanceParallelism(tc.requested, tc.procs, tc.workers); got != tc.want {
			t.Errorf("instanceParallelism(%d, %d, %d) = %d, want %d",
				tc.requested, tc.procs, tc.workers, got, tc.want)
		}
	}
}

// TestHTTPEndToEnd walks the whole API: create, churn, snapshot with an
// advanced epoch, stats, metrics, list, delete.
func TestHTTPEndToEnd(t *testing.T) {
	srv, _ := startTestServer(t)

	status, created := do(t, "POST", srv.URL+"/v1/instances", map[string]any{
		"name":     "e2e",
		"vertices": 6,
		"trees":    [][][2]int{{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}},
		"demands": []map[string]any{
			{"u": 0, "v": 2, "profit": 5},
			{"u": 2, "v": 5, "profit": 3},
		},
		"options": map[string]any{"epsilon": 0.1, "seed": 7},
	})
	if status != http.StatusCreated {
		t.Fatalf("create: status %d (%v)", status, created)
	}
	if created["name"] != "e2e" || created["profit"].(float64) <= 0 {
		t.Fatalf("create response %v", created)
	}

	status, snap := do(t, "GET", srv.URL+"/v1/instances/e2e/snapshot", nil)
	if status != http.StatusOK || snap["epoch"].(float64) != 0 {
		t.Fatalf("initial snapshot: status %d, %v", status, snap)
	}

	status, churned := do(t, "POST", srv.URL+"/v1/instances/e2e/churn", map[string]any{
		"remove": []int{0},
		"add":    []map[string]any{{"u": 1, "v": 4, "profit": 9}},
	})
	if status != http.StatusOK {
		t.Fatalf("churn: status %d (%v)", status, churned)
	}
	ids := churned["ids"].([]any)
	if len(ids) != 1 || ids[0].(float64) != 2 {
		t.Fatalf("churn ids %v, want [2]", ids)
	}
	epoch := churned["epoch"].(float64)
	if epoch < 1 {
		t.Fatalf("churn epoch %v", epoch)
	}

	// The returned epoch is already published: the snapshot must be at it
	// (or later) and reflect the churn.
	status, snap = do(t, "GET", srv.URL+"/v1/instances/e2e/snapshot", nil)
	if status != http.StatusOK || snap["epoch"].(float64) < epoch {
		t.Fatalf("post-churn snapshot: status %d, %v", status, snap)
	}
	if snap["live"].(float64) != 2 {
		t.Fatalf("live %v, want 2", snap["live"])
	}
	if snap["profit"].(float64) <= 0 {
		t.Fatalf("profit %v", snap["profit"])
	}
	for _, a := range snap["accepted"].([]any) {
		if a.(float64) == 0 {
			t.Fatal("removed demand 0 still accepted")
		}
	}

	status, stats := do(t, "GET", srv.URL+"/v1/instances/e2e/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	if stats["rounds"].(float64) != 1 || stats["submissions"].(float64) != 1 {
		t.Fatalf("stats %v", stats)
	}
	sess := stats["session"].(map[string]any)
	if sess["live"].(float64) != 2 || sess["updates"].(float64) != 1 {
		t.Fatalf("session stats %v", sess)
	}

	status, list := do(t, "GET", srv.URL+"/v1/instances", nil)
	if status != http.StatusOK || fmt.Sprint(list["instances"]) != "[e2e]" {
		t.Fatalf("list: %v", list)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `schedserve_rounds_total{instance="e2e"} 1`) {
		t.Fatalf("metrics missing rounds counter:\n%s", metrics)
	}

	if status, _ := do(t, "DELETE", srv.URL+"/v1/instances/e2e", nil); status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}
	if status, _ := do(t, "GET", srv.URL+"/v1/instances/e2e/snapshot", nil); status != http.StatusNotFound {
		t.Fatalf("snapshot after delete: status %d", status)
	}
}

// TestHTTPErrors pins the error statuses: bad bodies, invalid churn,
// unknown instances, unsupported options.
func TestHTTPErrors(t *testing.T) {
	srv, _ := startTestServer(t)

	if status, _ := do(t, "GET", srv.URL+"/v1/instances/nope/snapshot", nil); status != http.StatusNotFound {
		t.Fatalf("unknown snapshot: %d", status)
	}
	if status, _ := do(t, "POST", srv.URL+"/v1/instances/nope/churn", map[string]any{}); status != http.StatusNotFound {
		t.Fatalf("unknown churn: %d", status)
	}

	status, body := do(t, "POST", srv.URL+"/v1/instances", map[string]any{
		"name": "bad", "vertices": 4, "trees": [][][2]int{{{0, 1}, {1, 2}, {2, 3}}},
		"demands": []map[string]any{{"u": 0, "v": 2, "profit": 1}},
		"options": map[string]any{"algorithm": "sequential-tree"},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("unsupported algorithm: %d (%v)", status, body)
	}

	// Sub-unit heights under auto must reject at create time.
	status, _ = do(t, "POST", srv.URL+"/v1/instances", map[string]any{
		"name": "subunit", "vertices": 4, "trees": [][][2]int{{{0, 1}, {1, 2}, {2, 3}}},
		"demands": []map[string]any{{"u": 0, "v": 2, "profit": 1, "height": 0.4}},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("auto sub-unit create: %d", status)
	}
	// ... and accept under distributed-unit.
	status, _ = do(t, "POST", srv.URL+"/v1/instances", map[string]any{
		"name": "subunit", "vertices": 4, "trees": [][][2]int{{{0, 1}, {1, 2}, {2, 3}}},
		"demands": []map[string]any{{"u": 0, "v": 2, "profit": 1, "height": 0.4}},
		"options": map[string]any{"algorithm": "distributed-unit"},
	})
	if status != http.StatusCreated {
		t.Fatalf("distributed-unit sub-unit create: %d", status)
	}

	// Invalid churn rejects only that submission, with a 400.
	status, body = do(t, "POST", srv.URL+"/v1/instances/subunit/churn", map[string]any{
		"remove": []int{99},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("invalid churn: %d (%v)", status, body)
	}
	// The instance remains usable.
	if status, _ := do(t, "POST", srv.URL+"/v1/instances/subunit/churn", map[string]any{
		"add": []map[string]any{{"u": 1, "v": 3, "profit": 2}},
	}); status != http.StatusOK {
		t.Fatalf("churn after failed churn: %d", status)
	}
}

// TestMetricsExposition scrapes /metrics exactly the way the CI smoke step
// does — through validateMetricsURL — and then pins the histogram series a
// single churn round must produce.
func TestMetricsExposition(t *testing.T) {
	srv, _ := startTestServer(t)
	if status, _ := do(t, "POST", srv.URL+"/v1/instances", map[string]any{
		"name": "smoke", "vertices": 6, "trees": [][][2]int{{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}},
		"demands": []map[string]any{{"u": 0, "v": 2, "profit": 5}},
		"options": map[string]any{"epsilon": 0.1, "seed": 7},
	}); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	if status, _ := do(t, "POST", srv.URL+"/v1/instances/smoke/churn", map[string]any{
		"add": []map[string]any{{"u": 1, "v": 4, "profit": 9}},
	}); status != http.StatusOK {
		t.Fatalf("churn: status %d", status)
	}

	if err := validateMetricsURL(srv.URL + "/metrics"); err != nil {
		t.Fatalf("validate-metrics: %v", err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`schedserve_round_latency_seconds_bucket{instance="smoke",le="+Inf"} 1`,
		`schedserve_round_latency_seconds_count{instance="smoke"} 1`,
		`schedserve_batch_size_count{instance="smoke"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
	if err := validateMetricsURL(srv.URL + "/healthz"); err == nil {
		t.Fatal("validate-metrics accepted a JSON body")
	}
}

// TestDebugSurface checks that -pprof mounts /debug/vars and the pprof
// index — and that without it both stay 404.
func TestDebugSurface(t *testing.T) {
	srv, _ := startTestServerDebug(t, true)
	if status, _ := do(t, "POST", srv.URL+"/v1/instances", map[string]any{
		"name": "dbg", "vertices": 4, "trees": [][][2]int{{{0, 1}, {1, 2}, {2, 3}}},
		"demands": []map[string]any{{"u": 0, "v": 2, "profit": 1}},
	}); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}

	status, vars := do(t, "GET", srv.URL+"/debug/vars", nil)
	if status != http.StatusOK {
		t.Fatalf("/debug/vars: status %d", status)
	}
	insts, ok := vars["instances"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/vars shape: %v", vars)
	}
	dbg, ok := insts["dbg"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/vars missing instance dbg: %v", insts)
	}
	if dbg["live"].(float64) != 1 {
		t.Fatalf("vars live %v, want 1", dbg["live"])
	}
	if _, ok := dbg["hists"].(map[string]any)["round_latency_seconds"]; !ok {
		t.Fatalf("vars missing histogram snapshots: %v", dbg["hists"])
	}

	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/: status %d", resp.StatusCode)
	}

	plain, _ := startTestServer(t)
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get(plain.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without -pprof: status %d, want 404", path, resp.StatusCode)
		}
	}
}
