package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	treesched "treesched"
	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/obs"
	"treesched/internal/serve"
	"treesched/internal/workload"
)

// This file implements -bench-json: a machine-readable performance run of
// the solve pipeline, emitted as one JSON document so the perf trajectory
// can accumulate across commits (schema below). It times the engine-level
// cold solve over prebuilt items — the quantity BenchmarkEngineUnitTree
// measures, serial at every parallelism — plus the incremental churn
// workload (Session.Update + Solve per round of demand arrivals/departures),
// whose warm-start rounds run the sharded pipeline.

// benchSchema identifies the report layout. Bump when fields change.
const benchSchema = "treesched/bench/v1"

// BenchReport is the top-level -bench-json document.
type BenchReport struct {
	Schema    string `json:"schema"`
	Timestamp string `json:"timestamp"` // RFC 3339, UTC
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"` // runtime.NumCPU at run time
	// GoMaxProcs is runtime.GOMAXPROCS(0) at run time: the scheduler
	// parallelism the solves actually had, which is what makes a multi-core
	// snapshot distinguishable from the 1-CPU CI baseline when reading
	// speedup_vs_serial. Additive to the v1 schema (absent in older
	// snapshots, where it decodes as 0 = unrecorded).
	GoMaxProcs int           `json:"gomaxprocs,omitempty"`
	Seed       int64         `json:"seed"`
	Quick      bool          `json:"quick"`
	Results    []BenchResult `json:"results"`
}

// BenchResult is one timed scenario. SpeedupVsSerial compares against the
// parallelism-1 run of the same scenario (1 for the serial rows
// themselves); on single-CPU hosts it reflects sharding's locality wins
// rather than concurrency.
type BenchResult struct {
	Name            string  `json:"name"`  // scenario id, stable across commits
	Items           int     `json:"items"` // demand instances after expansion
	Components      int     `json:"components"`
	Mode            string  `json:"mode"`
	Parallelism     int     `json:"parallelism"`
	Iters           int     `json:"iters"`
	NsPerOp         int64   `json:"ns_per_op"`
	SolvesPerSec    float64 `json:"solves_per_sec"`
	ItemsPerSec     float64 `json:"items_per_sec"`
	SerialNsPerOp   int64   `json:"serial_ns_per_op"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	// CoalescedBatch is the mean number of submissions absorbed per solve
	// round (serve scenarios only; 0 elsewhere). The field is additive to
	// the v1 schema: older readers ignore it, -compare keys on
	// (name, parallelism, ns_per_op) either way.
	CoalescedBatch float64 `json:"coalesced_batch,omitempty"`
	// Messages and BytesPerDemand describe the dist scenarios (0 elsewhere;
	// both additive to the v1 schema): total protocol messages of one run,
	// and resident private node state per demand — the compact-layout
	// quantity the million-demand runtime is sized by.
	Messages       int64 `json:"messages,omitempty"`
	BytesPerDemand int64 `json:"bytes_per_demand,omitempty"`
	// Phases is the per-phase wall-time breakdown of the scenario's
	// iterations, present only under -trace-json (additive to the v1
	// schema). Traced rows carry the recorder's no-op-bounded overhead in
	// their timings, so trace reports are for diagnosis, not for gating
	// against untraced snapshots.
	Phases []BenchPhase `json:"phases,omitempty"`
}

// benchScenario is a workload shape swept by the bench run.
type benchScenario struct {
	name string
	cfg  workload.TreeConfig
}

func benchScenarios(quick bool) []benchScenario {
	// The size sweep is identical in quick and full runs: m=768 is the
	// headline scenario the CI regression gate compares against the
	// checked-in snapshot, so the quick pass must measure it under the
	// exact same configuration (same sizes, same iteration count; quick
	// only swaps in a smaller fleet workload below).
	sizes := []struct {
		n, m, r int
	}{{64, 48, 2}, {256, 192, 3}, {1024, 768, 3}}
	var out []benchScenario
	for _, sz := range sizes {
		out = append(out, benchScenario{
			name: fmt.Sprintf("unit-tree/m=%d", sz.m),
			cfg: workload.TreeConfig{
				Vertices: sz.n, Trees: sz.r, Demands: sz.m, ProfitRatio: 16,
			},
		})
	}
	// A fleet of disjoint networks, every demand pinned to one, so the
	// conflict graph splits into many components. Solved cold, it runs the
	// serial engine at both parallelisms (its two rows time the same
	// engine.Run); the sharded pipeline serves only warm-start sessions (the
	// churn-warm and serve-warm rows). The quick
	// fleet is a smaller workload and carries a distinct scenario name, so
	// -compare never matches a quick fleet against a full one.
	if quick {
		out = append(out, benchScenario{name: "unit-tree/fleet-quick", cfg: workload.TreeConfig{
			Vertices: 64, Trees: 8, Demands: 192, ProfitRatio: 16,
			AccessMin: 1, AccessMax: 1,
		}})
	} else {
		out = append(out, benchScenario{name: "unit-tree/fleet", cfg: workload.TreeConfig{
			Vertices: 256, Trees: 16, Demands: 1024, ProfitRatio: 16,
			AccessMin: 1, AccessMax: 1,
		}})
	}
	return out
}

// runBenchJSON executes the scenarios at parallelism 1 and max(4, NumCPU)
// and writes the report to path. With trace, an obs.Recorder rides along on
// every engine/churn/dist scenario and each row embeds its phase breakdown.
func runBenchJSON(path string, seed int64, quick, trace bool) error {
	// Quick shrinks the fleet workload only; the iteration count stays at 5
	// so a quick row and a full row of the same scenario are best-of the
	// same sample size — -compare gates quick CI runs against checked-in
	// full snapshots, and a smaller sample would read as a false
	// regression.
	iters := 5
	parallel := runtime.NumCPU()
	if parallel < 4 {
		parallel = 4
	}
	report := &BenchReport{
		Schema:     benchSchema,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Quick:      quick,
	}
	for _, sc := range benchScenarios(quick) {
		rng := rand.New(rand.NewSource(seed + 1))
		in, err := workload.RandomTreeInstance(sc.cfg, rng)
		if err != nil {
			return fmt.Errorf("bench %s: %w", sc.name, err)
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			return fmt.Errorf("bench %s: %w", sc.name, err)
		}
		components := len(engine.Prepare(items).Components())
		var serialNs int64
		for _, p := range []int{1, parallel} {
			rec := benchRecorder(trace)
			ns, err := timeSolve(items, seed, iters, engineRecorder(rec))
			if err != nil {
				return fmt.Errorf("bench %s p=%d: %w", sc.name, p, err)
			}
			if p == 1 {
				serialNs = ns
			}
			res := BenchResult{
				Name:            sc.name,
				Items:           len(items),
				Components:      components,
				Mode:            engine.Unit.String(),
				Parallelism:     p,
				Iters:           iters,
				NsPerOp:         ns,
				SolvesPerSec:    1e9 / float64(ns),
				ItemsPerSec:     float64(len(items)) * 1e9 / float64(ns),
				SerialNsPerOp:   serialNs,
				SpeedupVsSerial: float64(serialNs) / float64(ns),
			}
			if rec != nil {
				res.Phases = phasesFrom(rec)
			}
			report.Results = append(report.Results, res)
		}
	}

	// The recorder-overhead scenario: the headline workload solved with a
	// no-op recorder attached versus none, interleaved in one process so the
	// row is self-contained (NsPerOp = attached, SerialNsPerOp = nil
	// baseline, Iters = pairs run). -recorder-gate reads it back and enforces
	// the budget; it runs in quick mode because that is what CI measures.
	// A cold solve runs the serial engine at every worker count, so one
	// measurement serves both rows: the p=parallel row repeats the p=1 one
	// and is kept only so reports keep their row set.
	{
		cfg := workload.TreeConfig{Vertices: 1024, Trees: 3, Demands: 768, ProfitRatio: 16}
		rng := rand.New(rand.NewSource(seed + 1))
		in, err := workload.RandomTreeInstance(cfg, rng)
		if err != nil {
			return fmt.Errorf("bench %s: %w", recorderNoopScenario, err)
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			return fmt.Errorf("bench %s: %w", recorderNoopScenario, err)
		}
		noopNs, nilNs, pairs, err := timeRecorderOverhead(items, seed)
		if err != nil {
			return fmt.Errorf("bench %s: %w", recorderNoopScenario, err)
		}
		for _, p := range []int{1, parallel} {
			report.Results = append(report.Results, BenchResult{
				Name:            recorderNoopScenario,
				Items:           len(items),
				Mode:            engine.Unit.String(),
				Parallelism:     p,
				Iters:           pairs,
				NsPerOp:         noopNs,
				SolvesPerSec:    1e9 / float64(noopNs),
				ItemsPerSec:     float64(len(items)) * 1e9 / float64(noopNs),
				SerialNsPerOp:   nilNs,
				SpeedupVsSerial: float64(nilNs) / float64(noopNs),
			})
		}
	}

	// The parallel sweep: the headline single-component instance (the same
	// workload as unit-tree/m=768) solved cold at a ladder of worker counts.
	// A cold solve runs the serial engine at every worker count, so every
	// row times the same engine.Run; the rows are kept so the parallel-sweep
	// gate keeps matching its snapshot.
	{
		sweepCfg := workload.TreeConfig{Vertices: 1024, Trees: 3, Demands: 768, ProfitRatio: 16}
		rng := rand.New(rand.NewSource(seed + 1))
		in, err := workload.RandomTreeInstance(sweepCfg, rng)
		if err != nil {
			return fmt.Errorf("bench parallel-sweep: %w", err)
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			return fmt.Errorf("bench parallel-sweep: %w", err)
		}
		components := len(engine.Prepare(items).Components())
		var serialNs int64
		for _, w := range []int{1, 2, 4, 8} {
			rec := benchRecorder(trace)
			ns, err := timeSolve(items, seed, iters, engineRecorder(rec))
			if err != nil {
				return fmt.Errorf("bench parallel-sweep w=%d: %w", w, err)
			}
			if w == 1 {
				serialNs = ns
			}
			res := BenchResult{
				Name:            "parallel-sweep/m=768",
				Items:           len(items),
				Components:      components,
				Mode:            engine.Unit.String(),
				Parallelism:     w,
				Iters:           iters,
				NsPerOp:         ns,
				SolvesPerSec:    1e9 / float64(ns),
				ItemsPerSec:     float64(len(items)) * 1e9 / float64(ns),
				SerialNsPerOp:   serialNs,
				SpeedupVsSerial: float64(serialNs) / float64(ns),
			}
			if rec != nil {
				res.Phases = phasesFrom(rec)
			}
			report.Results = append(report.Results, res)
		}
	}

	// The incremental churn workloads: a Session re-solving as demands
	// depart and as many arrive each round, the steady state the
	// delta-aware Prepared exists for. churn/m=768 churns ~5% of a fully
	// contended single-component instance (the incremental path's worst
	// case); churn-fleet/m=1024 churns one network of a disjoint fleet per
	// round (the locality regime a multi-tenant service sees, where only
	// the touched component rebuilds). churn-warm/m=768 and churn-cold/m=768
	// are the warm-start headline pair: identical component-local churn —
	// churnLocalN demands of one rotating network per round — on the same
	// fleet shape, with the per-component dual cache on (the session
	// default) and forced off. Their ratio is the steady-state speedup of
	// replaying untouched components instead of re-running them. ns_per_op
	// is the average cost of one (Update + Solve) round over churnRounds
	// rounds.
	fleet768 := workload.TreeConfig{
		Vertices: 256, Trees: 16, Demands: 768, ProfitRatio: 16,
		AccessMin: 1, AccessMax: 1,
	}
	for _, sc := range []struct {
		name   string
		cfg    workload.TreeConfig
		local  bool
		churnN int  // demands churned per round (0 = half the network)
		cold   bool // disable the warm-start cache
	}{
		{name: "churn/m=768", cfg: workload.TreeConfig{
			Vertices: 1024, Trees: 3, Demands: 768, ProfitRatio: 16,
		}},
		{name: "churn-fleet/m=1024", cfg: workload.TreeConfig{
			Vertices: 256, Trees: 16, Demands: 1024, ProfitRatio: 16,
			AccessMin: 1, AccessMax: 1,
		}, local: true},
		{name: "churn-warm/m=768", cfg: fleet768, local: true, churnN: churnLocalN},
		{name: "churn-cold/m=768", cfg: fleet768, local: true, churnN: churnLocalN, cold: true},
	} {
		var serialNs int64
		for _, p := range []int{1, parallel} {
			rec := benchRecorder(trace)
			ns, nItems, err := timeChurn(sc.cfg, seed, p, sc.local, sc.churnN, sc.cold, rec)
			if err != nil {
				return fmt.Errorf("bench %s p=%d: %w", sc.name, p, err)
			}
			if p == 1 {
				serialNs = ns
			}
			res := BenchResult{
				Name:            sc.name,
				Items:           nItems,
				Mode:            engine.Unit.String(),
				Parallelism:     p,
				Iters:           churnRounds,
				NsPerOp:         ns,
				SolvesPerSec:    1e9 / float64(ns),
				ItemsPerSec:     float64(nItems) * 1e9 / float64(ns),
				SerialNsPerOp:   serialNs,
				SpeedupVsSerial: float64(serialNs) / float64(ns),
			}
			if rec != nil {
				res.Phases = phasesFrom(rec)
			}
			report.Results = append(report.Results, res)
		}
	}
	// The serve scenarios: the online service shape — an in-process session
	// actor absorbing churn from serveSubmitters concurrent submitters, one
	// coalesced delta+solve per round. serve/m=768 hammers the contended
	// single-component instance with unpinned churn; serve-warm/m=768 is
	// the fleet shape with every submitter churning only networks it owns,
	// so each round touches few components and the warm dual cache replays
	// the rest — the steady-state latency regime cmd/schedserve sees.
	// ns_per_op is the mean round latency (the quantity a snapshot reader's
	// staleness is bounded by) and coalesced_batch the mean submissions
	// absorbed per round.
	for _, sc := range []struct {
		name   string
		cfg    workload.TreeConfig
		pinned bool
	}{
		{name: "serve/m=768", cfg: workload.TreeConfig{
			Vertices: 1024, Trees: 3, Demands: 768, ProfitRatio: 16,
		}},
		{name: "serve-warm/m=768", cfg: fleet768, pinned: true},
	} {
		var serveSerialNs int64
		for _, p := range []int{1, parallel} {
			ns, rounds, batch, nItems, err := timeServe(sc.cfg, seed, p, sc.pinned)
			if err != nil {
				return fmt.Errorf("bench %s p=%d: %w", sc.name, p, err)
			}
			if p == 1 {
				serveSerialNs = ns
			}
			report.Results = append(report.Results, BenchResult{
				Name:            sc.name,
				Items:           nItems,
				Mode:            engine.Unit.String(),
				Parallelism:     p,
				Iters:           rounds,
				NsPerOp:         ns,
				SolvesPerSec:    1e9 / float64(ns),
				ItemsPerSec:     float64(nItems) * 1e9 / float64(ns),
				SerialNsPerOp:   serveSerialNs,
				SpeedupVsSerial: float64(serveSerialNs) / float64(ns),
				CoalescedBatch:  batch,
			})
		}
	}

	// The dist scenarios: the full distributed protocol — message-passing
	// simulation over one processor per demand — on fleet workloads (every
	// demand pinned to one network, so conflict components stay small: the
	// shape million-demand runs have). dist/m=2048 is the headline row, run
	// identically in quick and full passes so the CI gate compares like
	// against like; dist/m=16384 charts the scale trend in full runs only.
	// ns_per_op is one full solve on the batched driver, messages the
	// protocol's total message count, bytes_per_demand the resident private
	// node state per processor.
	distSizes := []struct {
		name  string
		trees int
		m     int
	}{{name: "dist/m=2048", trees: 32, m: 2048}}
	if !quick {
		distSizes = append(distSizes, struct {
			name  string
			trees int
			m     int
		}{name: "dist/m=16384", trees: 256, m: 16384})
	}
	for _, sz := range distSizes {
		cfg := workload.TreeConfig{
			Vertices: 64, Trees: sz.trees, Demands: sz.m, ProfitRatio: 16,
			AccessMin: 1, AccessMax: 1,
		}
		rng := rand.New(rand.NewSource(seed + 1))
		in, err := workload.RandomTreeInstance(cfg, rng)
		if err != nil {
			return fmt.Errorf("bench %s: %w", sz.name, err)
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			return fmt.Errorf("bench %s: %w", sz.name, err)
		}
		var serialNs int64
		for _, p := range []int{1, parallel} {
			rec := benchRecorder(trace)
			ns, res, err := timeDist(items, seed, p, iters, engineRecorder(rec))
			if err != nil {
				return fmt.Errorf("bench %s p=%d: %w", sz.name, p, err)
			}
			if p == 1 {
				serialNs = ns
			}
			row := BenchResult{
				Name:            sz.name,
				Items:           len(items),
				Mode:            engine.Unit.String(),
				Parallelism:     p,
				Iters:           iters,
				NsPerOp:         ns,
				SolvesPerSec:    1e9 / float64(ns),
				ItemsPerSec:     float64(len(items)) * 1e9 / float64(ns),
				SerialNsPerOp:   serialNs,
				SpeedupVsSerial: float64(serialNs) / float64(ns),
				Messages:        int64(res.Stats.Messages),
				BytesPerDemand:  res.NodeStateBytes / int64(res.Processors),
			}
			if rec != nil {
				row.Phases = phasesFrom(rec)
			}
			report.Results = append(report.Results, row)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n", path, len(report.Results))
	return nil
}

// churnRounds is the number of measured churn rounds; the churn fraction
// per round is churnDenom⁻¹.
const (
	churnRounds = 12
	churnDenom  = 20 // 5% of the live demands depart (and arrive) per round
	// churnLocalN is the per-round churn of the churn-warm/churn-cold pair:
	// a handful of demands on one network, the granularity a serving round
	// coalesces, so the round cost is dominated by the solve — the quantity
	// the warm cache accelerates — not by delta bookkeeping.
	churnLocalN = 8
)

// timeChurn measures the incremental re-solve workload: one Session over a
// fixed network set, churning demands and re-solving each round. With
// localNet, each round's churn is confined to one rotating network — churnN
// of its live demands, or half of them when churnN is 0; otherwise ~5% of
// all demands churn uniformly. cold disables the warm-start dual cache.
// Returns the average ns per (Update + Solve) round and the initial item
// count.
func timeChurn(cfg workload.TreeConfig, seed int64, parallelism int, localNet bool, churnN int, cold bool, rec *obs.Recorder) (int64, int, error) {
	rng := rand.New(rand.NewSource(seed + 1))
	in, err := workload.RandomTreeInstance(cfg, rng)
	if err != nil {
		return 0, 0, err
	}
	inst := treesched.NewInstance(cfg.Vertices)
	for _, t := range in.Trees {
		edges := make([][2]int, 0, t.N()-1)
		for _, e := range t.Edges() {
			edges = append(edges, [2]int{e.U, e.V})
		}
		if _, err := inst.AddTree(edges); err != nil {
			return 0, 0, err
		}
	}
	for _, d := range in.Demands {
		inst.AddDemand(d.U, d.V, d.Profit, treesched.Access(d.Access...))
	}
	s := treesched.NewSolver(solverOptions(seed, parallelism, cold, rec))
	sess, err := s.Session(inst)
	if err != nil {
		return 0, 0, err
	}
	nItems := len(in.Demands)

	// Pre-generate every round's churn before the clock starts, modelling
	// the live set and the ids Update will assign (sequential from the
	// initial demand count), so the timed — and CI-gated — region contains
	// only Update + Solve.
	live := make([]int, len(in.Demands))
	nets := make(map[int]int, len(in.Demands)) // demand id -> pinned network
	for i := range live {
		live[i] = i
		if len(in.Demands[i].Access) == 1 {
			nets[i] = in.Demands[i].Access[0]
		}
	}
	next := len(in.Demands)
	rounds := make([]treesched.Churn, churnRounds)
	for r := range rounds {
		var c treesched.Churn
		if localNet {
			q := r % cfg.Trees
			var onNet []int
			for _, id := range live {
				if nets[id] == q {
					onNet = append(onNet, id)
				}
			}
			take := len(onNet) / 2
			if churnN > 0 && churnN < take {
				take = churnN
			}
			c.Remove = onNet[:take]
			for range c.Remove {
				u, v := rng.Intn(cfg.Vertices), rng.Intn(cfg.Vertices)
				if u == v {
					v = (v + 1) % cfg.Vertices
				}
				c.Add = append(c.Add, treesched.NewDemand{
					U: u, V: v, Profit: 1 + rng.Float64()*15, Access: []int{q},
				})
			}
		} else {
			perm := rng.Perm(len(live))[:len(live)/churnDenom]
			for _, i := range perm {
				c.Remove = append(c.Remove, live[i])
			}
			for range c.Remove {
				u, v := rng.Intn(cfg.Vertices), rng.Intn(cfg.Vertices)
				if u == v {
					v = (v + 1) % cfg.Vertices
				}
				c.Add = append(c.Add, treesched.NewDemand{U: u, V: v, Profit: 1 + rng.Float64()*15})
			}
		}
		rounds[r] = c
		gone := make(map[int]bool, len(c.Remove))
		for _, id := range c.Remove {
			gone[id] = true
		}
		kept := live[:0]
		for _, id := range live {
			if !gone[id] {
				kept = append(kept, id)
			}
		}
		live = kept
		for _, nd := range c.Add {
			if len(nd.Access) == 1 {
				nets[next] = nd.Access[0]
			}
			live = append(live, next)
			next++
		}
	}

	if _, err := sess.Solve(); err != nil { // warm the shard decomposition
		return 0, 0, err
	}
	start := time.Now()
	for _, c := range rounds {
		if _, err := sess.Update(c); err != nil {
			return 0, 0, err
		}
		if _, err := sess.Solve(); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start).Nanoseconds() / churnRounds, nItems, nil
}

// Serve scenario shape: serveSubmitters goroutines each blocking-submit
// serveSubmitsPer churns of serveChurnSize departures+arrivals. Submitters
// overlap the actor's rounds, so steady-state rounds coalesce multiple
// submissions into one delta+solve.
const (
	serveSubmitters = 4
	serveSubmitsPer = 24
	serveChurnSize  = 8
)

// timeServe measures the online-serving workload: a standalone session
// actor over a fixed instance, hammered by concurrent submitters. Each
// submitter churns only demand ids it owns (its slice of the initial set
// plus the replacements Submit assigned to it), so every coalesced batch is
// valid. With pinned (requires a fleet config with AccessMin=AccessMax=1),
// ownership follows networks — submitter k owns the demands of networks
// ≡ k (mod serveSubmitters) and pins its replacements to those networks —
// so every round's churn is component-local and the warm dual cache
// replays the untouched networks. Returns the mean round latency (ns), the
// round count, the mean coalesced batch size, and the initial demand count.
func timeServe(cfg workload.TreeConfig, seed int64, parallelism int, pinned bool) (int64, int, float64, int, error) {
	rng := rand.New(rand.NewSource(seed + 1))
	in, err := workload.RandomTreeInstance(cfg, rng)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	inst := treesched.NewInstance(cfg.Vertices)
	for _, t := range in.Trees {
		edges := make([][2]int, 0, t.N()-1)
		for _, e := range t.Edges() {
			edges = append(edges, [2]int{e.U, e.V})
		}
		if _, err := inst.AddTree(edges); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	for _, d := range in.Demands {
		inst.AddDemand(d.U, d.V, d.Profit, treesched.Access(d.Access...))
	}
	s := treesched.NewSolver(treesched.Options{Epsilon: 0.1, Seed: seed, Parallelism: parallelism})
	sess, err := s.Session(inst)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	actor, err := serve.NewActor("bench", sess)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	errs := make(chan error, serveSubmitters)
	var wg sync.WaitGroup
	for k := 0; k < serveSubmitters; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 100 + int64(k)))
			var mine, nets []int
			if pinned {
				for t := k; t < cfg.Trees; t += serveSubmitters {
					nets = append(nets, t)
				}
				for id, d := range in.Demands {
					if len(d.Access) == 1 && d.Access[0]%serveSubmitters == k {
						mine = append(mine, id)
					}
				}
			} else {
				for id := k; id < len(in.Demands); id += serveSubmitters {
					mine = append(mine, id)
				}
			}
			for r := 0; r < serveSubmitsPer; r++ {
				n := serveChurnSize
				if n > len(mine) {
					n = len(mine)
				}
				c := treesched.Churn{Remove: mine[:n]}
				for i := 0; i < n; i++ {
					u, v := rng.Intn(cfg.Vertices), rng.Intn(cfg.Vertices)
					if u == v {
						v = (v + 1) % cfg.Vertices
					}
					nd := treesched.NewDemand{U: u, V: v, Profit: 1 + rng.Float64()*15}
					if pinned {
						nd.Access = []int{nets[rng.Intn(len(nets))]}
					}
					c.Add = append(c.Add, nd)
				}
				ids, _, err := actor.Submit(c)
				if err != nil {
					errs <- err
					return
				}
				mine = append(mine[n:], ids...)
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, 0, 0, 0, err
	}
	st := actor.Stats()
	if st.Rounds == 0 {
		return 0, 0, 0, 0, fmt.Errorf("serve bench ran no rounds")
	}
	ns := st.TotalLatency.Nanoseconds() / int64(st.Rounds)
	batch := float64(st.Submissions) / float64(st.Rounds)
	return ns, int(st.Rounds), batch, len(in.Demands), nil
}

// timeDist measures the best-of-iters wall time of one full distributed
// solve on the batched driver with a stepping pool of `parallelism`
// workers, returning the last run's Result for the message/state columns
// (identical across iterations at a fixed seed).
func timeDist(items []engine.Item, seed int64, parallelism, iters int, rec engine.Recorder) (int64, *dist.Result, error) {
	best := int64(0)
	var last *dist.Result
	for i := 0; i < iters; i++ {
		cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: seed}
		start := time.Now()
		res, err := dist.RunOpts(items, cfg, dist.Options{Workers: parallelism, Recorder: rec})
		if err != nil {
			return 0, nil, err
		}
		ns := time.Since(start).Nanoseconds()
		if best == 0 || ns < best {
			best = ns
		}
		last = res
	}
	return best, last, nil
}

// runDistSmoke is -dist-smoke N: one end-to-end distributed solve of an
// N-demand fleet workload on the batched driver, printing the headline
// numbers (wall clock, rounds, messages, per-demand state). The CI smoke
// runs it at N ≥ 100000 to keep the million-demand path honest.
func runDistSmoke(demands int, seed int64) error {
	trees := demands / 64
	if trees < 1 {
		trees = 1
	}
	cfg := workload.TreeConfig{
		Vertices: 64, Trees: trees, Demands: demands, ProfitRatio: 16,
		AccessMin: 1, AccessMax: 1,
	}
	rng := rand.New(rand.NewSource(seed + 1))
	buildStart := time.Now()
	in, err := workload.RandomTreeInstance(cfg, rng)
	if err != nil {
		return err
	}
	items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
	if err != nil {
		return err
	}
	buildNs := time.Since(buildStart)
	solveStart := time.Now()
	res, err := dist.Run(items, engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: seed})
	if err != nil {
		return err
	}
	solveNs := time.Since(solveStart)
	fmt.Printf("dist smoke: %d demands (%d items, %d processors)\n", demands, len(items), res.Processors)
	fmt.Printf("  build %v, solve %v\n", buildNs.Round(time.Millisecond), solveNs.Round(time.Millisecond))
	fmt.Printf("  schedule %d rounds (%d busy, %d skipped), %d messages, max size %d\n",
		res.ScheduleRounds, res.Stats.BusyRounds, res.Stats.SkippedRounds, res.Stats.Messages, res.Stats.MaxMessageSize)
	fmt.Printf("  node state %d bytes/demand, shared context %d bytes\n",
		res.NodeStateBytes/int64(res.Processors), res.SharedStateBytes)
	fmt.Printf("  selected %d items, profit %.3f, bound %.3f\n", len(res.Selected), res.Profit, res.Bound)
	return nil
}

// timeSolve measures the best-of-iters wall time of one cold engine solve,
// which runs the serial engine whatever the row's parallelism. With a
// non-nil rec the same prepare+run pipeline runs through the explicit
// recorder seam (engine.Run is exactly Prepare + prepared Run), so traced
// rows time the same quantity plus the recorder's gated overhead.
func timeSolve(items []engine.Item, seed int64, iters int, rec engine.Recorder) (int64, error) {
	if rec != nil {
		return timeSolvePrepared(items, seed, iters, rec)
	}
	best := int64(0)
	for i := 0; i < iters; i++ {
		cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: seed + int64(i)}
		start := time.Now()
		if _, err := engine.Run(items, cfg); err != nil {
			return 0, err
		}
		ns := time.Since(start).Nanoseconds()
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}
