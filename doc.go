// Package treesched implements the distributed scheduling algorithms of
// Chakaravarthy, Roy and Sabharwal, "Distributed Algorithms for Scheduling
// on Line and Tree Networks" (PODC 2012, arXiv:1205.1924): constant-factor
// approximation algorithms for throughput maximization — selecting and
// placing a maximum-profit set of point-to-point demands on tree-networks
// (or line resources with time windows) under unit edge capacities — that
// run in a polylogarithmic number of synchronous communication rounds.
//
// The package offers:
//
//   - (7+ε)-approximation for unit-height demands on tree networks
//     (Theorem 5.3), built on the paper's ideal tree decompositions
//     (Lemma 4.1) and layered decompositions (Lemma 4.2/4.3);
//   - (80+ε)-approximation for arbitrary heights on trees (Theorem 6.3);
//   - (4+ε) / (23+ε)-approximations for line networks with release-time/
//     deadline windows (Theorems 7.1 and 7.2);
//   - the sequential 3-approximation of Appendix A and exact solvers for
//     small instances as baselines;
//   - a faithful synchronous message-passing execution (one processor per
//     demand, stepped by a batched round scheduler) with honest round and
//     message accounting, bit-identical to the fast in-process execution.
//
// Quick start:
//
//	inst := treesched.NewInstance(8)
//	t0, _ := inst.AddTree([][2]int{{0, 1}, {1, 2}, {1, 3}, {0, 4}, {4, 5}, {4, 6}, {6, 7}})
//	inst.AddDemand(2, 3, 5.0, treesched.Access(t0))
//	inst.AddDemand(0, 7, 3.0, treesched.Access(t0))
//	res, err := treesched.Solve(inst, treesched.Options{Epsilon: 0.1, Seed: 1})
//	// res.Assignments: which demands run on which networks
//	// res.DualBound:   certified upper bound on the optimum
//
// # The Solver batch API
//
// Solve prepares an instance from scratch on every call. For batch use —
// re-solving as demands arrive and depart on fixed networks — construct a
// Solver instead: it carries one Options and caches the Config-independent
// preparation work at two levels, keyed by instance content. Per-tree
// layered decompositions (keyed by network structure) are reused whenever
// the same networks reappear; fully prepared item sets — the interned
// dense dual layout plus the member lists that encode the §2 conflict
// graph — are reused whenever the complete instance recurs, so the steady
// state skips item building and interning entirely and pays only
// validation, the content key and the schedule:
//
//	s := treesched.NewSolver(treesched.Options{Epsilon: 0.1})
//	res1, _ := s.Solve(inst1) // decomposes, interns, groups, caches
//	res2, _ := s.Solve(inst2) // same instance: straight into the schedule
//
// A Solver is safe for concurrent use.
//
// # Component shards for replay; cold solves run serially
//
// The conflict graph of §2 decomposes into connected components that never
// exchange messages, so the epoch/stage/step schedule can run per
// component and merge back into the serial execution exactly. The engine
// uses that locality for one thing: replay. A Session keeps the warm-start
// cache on (see "Warm-started solves" below), and its solves run the
// sharded pipeline — the component decomposition, one relabeled layout per
// component, the schedule of each component churn touched on
// min(Options.Parallelism, runnable components) goroutines, the cached
// outcome of every other, and the deterministic merge. A Session whose
// last decomposition found one component (a contended instance) skips the
// pass and solves serially at every Parallelism until a re-prepare: one
// shard would be the serial execution plus a merge, and repeating the pass
// every round to find one component again made contended rounds at
// Parallelism 2 take 1.4–2.7 times as long as at Parallelism 1.
//
// Every other solve is cold: Solver.Solve, the package-level Solve and
// SolveLine, both §6 height classes, and the engine solve under Simulate. A
// cold solve has nothing to replay, so it runs the serial engine on the
// calling goroutine whatever its Parallelism.
// Splitting one did not pay at any size measured. When cold solves still
// split, sharding fleets across components and row-partitioning the
// raises, greedy tests and λ fold of a single component across lanes,
// Parallelism 2 lost to Parallelism 1 on every shape (cold Prepare +
// RunParallel, 2 vCPUs, median of seven alternating runs, five for
// fleets): contended instances of 736, 3,085, 12,202 and 49,222 items took
// 0.42 vs 0.94, 2.5 vs 3.1, 8.8 vs 12.2 and 41 vs 66 ms, and fleets of
// 768–32,768 items in 14–610 components took 2.9–3.3 times as long. The
// component pass, the relabeled layouts and the merge cost more than the
// first phase they parallelize, and a lane handoff more than the raises
// and tests it splits. So a component runs whole on one goroutine, and
// shards serve replay only.
//
// Sharding is bitwise invisible. Items in different components share no
// demand and no edge, so their dual variables are disjoint and their raise
// rules never read each other's state. Priorities come from per-owner
// streams and every item of a demand lives in one component, so the Luby
// draws are shard-independent. The serial step at a schedule position
// raises the union of what the components raise there, its election takes
// the most Luby iterations any of them took, and λ is a min, exact in any
// association. So a sharded solve returns the serial engine's selections,
// profit, λ, dual bound and trace bit for bit at every worker count —
// asserted across worker counts × modes × seeds × shapes by the engine's
// sharded-pipeline suites — and outcomes cached at one worker count replay
// bitwise at any other.
//
// # Dense indexed dual state
//
// The inner loop of the two-phase framework tests ξ-satisfaction —
// α(a) + h·Σ_{e∈path} β(e) ≥ ξ·p(d) — for the demand instances that can
// still be unsatisfied. Raises only ever add to α and β, so an instance's
// computed LHS never falls: the first step of each stage tests the epoch's
// instances not yet satisfied at the plan's top threshold (and retires the
// ones that are), and every later step re-tests only the previous step's
// unsatisfied set. That selects exactly the sets a scan of every instance
// at every step would (pinned against that full scan by a test oracle and
// a fuzz target). The dual state backing the test is dense: every demand
// id and every EdgeKey is interned once per item set into contiguous int32
// slots in first-seen order (internal/dual.Index), α and β live in flat
// []float64 slices, and each item carries precomputed index lists for its
// path and critical set, so satisfaction scans, raises, the β-replay of
// announced raises, and the greedy second phase are tight loops over int
// slices with no map hashing. Interning itself hashes only where the key
// space is sparse. Edge keys go through one table per network, indexed by
// edge id (internal/model.EdgeInterner): tree edge ids are below the
// network's vertex count, so a lookup is two slice loads. The tables
// together hold at most two int32 cells per path entry they index, the
// bytes of the entries' own EdgeKeys; a key past that budget (a line slot
// id is any int the caller picks) converts the interner once to a map,
// keeping every index. Demand and owner ids go through
// internal/model.IDInterner: a cold build's ids are 0..m−1 in order, so the
// slot is the id, and the first other id (a shard's or a compacted
// Session's sparse ids) converts it once to a map. The invariants that
// keep the three executions — serial engine, sharded pipeline,
// message-passing simulation — bitwise equal are unchanged: indices are a
// pure storage relabeling (each execution owns its own index scope; values
// merge and compare by external key), the arithmetic applies the same
// deltas to the same logical variables in the same order as the map-backed
// representation (asserted by a shadow-replay determinism suite), and the
// dual objective sums in external-key order: identity demand slots in slot
// order and tabled edges in a (network, edge) scan, which is that order
// with no sort, and a side that converted to a map through a memoized sort
// (pinned against the map-and-sort index by an oracle test and a fuzz
// target).
//
// Luby election priorities come from per-owner splitmix64 streams
// (engine.NewStream), replacing the earlier math/rand sources whose
// 607-word seeding tables dominated fragmented runs. Engine and simulation
// switched streams in the same commit and still seed identically per
// (seed, owner), so they remain bit-identical to each other; absolute
// outputs for a given seed differ from pre-switch releases, and the perf
// trajectory re-baselined once at BENCH_dense_state.json.
//
// # Incremental state: Sessions, deltas, and their invariants
//
// Preparation is three linear passes. Item building walks each demand
// instance's path once (decomp.Layered.Walk, Lemma 4.2): one LCA, the
// climbs from both endpoints writing the path's edge keys, µ(d) tracked on
// the way and π(d)'s wings found by depth arithmetic, all into two arenas
// shared by the item set (engine.DemandItems). Layout interning then
// translates every item into its dense view, all views' index lists in one
// slab. Grouping finally lists, per interned demand slot and per edge
// index, the ascending items it holds, by array indexing over the views
// (no second hashing of the same keys). By §2 two items conflict
// iff they share a demand or an edge, so these member lists are a clique
// cover of the conflict graph, and the engine stores nothing else: the
// Luby and greedy elections compare priorities per group, and the
// component decomposition walks from item to item through shared groups.
// Preparation thus costs O(Σ |path|) rather than the O(Σ deg) of an
// adjacency, which on a contended instance is an order of magnitude more.
//
// For churning workloads the prepared state is a value to update, not to
// rebuild. Solver.Session pins a solver to one instance whose networks are
// fixed; Session.Update applies demand arrivals and departures as an
// engine-level delta (engine.Prepared.Apply). A delta may touch:
//
//   - the item slice: survivors stranded past the new length compact down
//     into freed slots, arrivals fill the remaining slots and append —
//     every id stays equal to its position;
//   - the dense layout, monotonically: arrivals intern at the end, and
//     departures leave stale slots behind. A stale slot holds zero in
//     every fresh per-run assignment and is referenced by no view, so it
//     cannot influence a raise, a satisfaction test, or the dual objective
//     (which sums in external-key order; adding a zero-valued stale slot is
//     exact). Arrivals take the next demand ids in order, so demand slots
//     stay the identity until a compaction re-prepares the set;
//   - the member lists of exactly the groups the churn reached: they filter
//     out departed items (preserving their sort order) and merge in
//     arriving ones (assigned in ascending id order), so nothing is
//     re-sorted;
//   - the lazy shard decomposition, which refreshes on the next sharded
//     run reusing every component the churn never touched.
//
// Determinism is unchanged: a Session's solve is bitwise identical to
// preparing its current item set from scratch, at every worker count — the
// incremental-state suite (internal/engine delta tests and fuzz target)
// asserts member lists, components, layout semantics, and solve results after
// arbitrary delta sequences. An update costs the total size of the member
// lists the churned items belong to, so it pays off even without
// locality: measured on a 2-vCPU host, BenchmarkApplyDelta (5% of a
// 768-demand, single-component instance churned) runs about 10x faster
// than BenchmarkPrepareCold rebuilding it, and on a fleet of disjoint
// networks where a round churns one network the gap is about 20x
// (BenchmarkApplyDeltaFleet vs BenchmarkPrepareColdFleet).
//
// Sessions are observable: Session.Stats reports the live set size, the
// stale-slot accretion since the last full preparation, the compaction
// re-prepare count, and the last delta's size — the counters an operator
// watches to confirm a long-lived session's footprint stays proportional
// to its live set. Update is atomic (a batch with one invalid arrival or
// removal rejects as a whole, with no partial churn and no burned ids),
// and Session.SolveWithItems returns the solve result together with a copy
// of the item set it was computed from, captured under one lock
// acquisition — the epoch-consistency primitive concurrent readers build
// on.
//
// # Warm-started solves: replaying untouched components across churn
//
// Churn is usually local: a round's delta reaches a few conflict
// components and leaves the rest identical. Because a component shares no
// demand and no edge with any other, its first-phase execution — the raise
// stack with schedule stamps, the shard-local dense α/β, its λ
// contribution, and its trace — is a pure function of its own items, the
// solve configuration, and the seed. Sessions therefore enable the
// engine's warm-start cache: after every sharded solve, each component's
// outcome is recorded keyed by its prepared shard and the configuration
// (mode, MIS budget, seed, ε, ξ, stage/step schedule, trace recording);
// the next solve replays cached outcomes for components the churn never
// reached and re-runs the schedule only where the item set changed, with
// the shared deterministic merge reassembling the global Result.
//
// Warm results are bitwise identical to cold solves — same selections,
// profit, λ, dual bound, and trace — because nothing on the replay path
// re-does arithmetic: the merged global λ is a min over per-shard minima
// (order-independent, no arithmetic), merged dual values are exact copies
// into disjoint global slots, and the dual objective sums in sorted
// external-key order regardless of which components were replayed. Stream
// drift cannot occur: per-owner PRNG streams are re-seeded per run from
// (seed, owner), so a replayed component's recorded draws are exactly the
// draws a re-run would make. The warm≡cold property is pinned by the
// incremental-state suite across multi-round churn sequences, seeds,
// worker counts, and unit/arbitrary modes.
//
// Cached component state invalidates exactly when its inputs change:
//
//   - a touched component — Apply marks every member of every group whose
//     member list a delta changed, which covers every arrival — is
//     re-solved (the others are not: a component none of whose groups
//     changed is still closed, so churn cannot reach it without touching
//     it);
//   - a configuration change (different Options, ε, seed, mode, or trace
//     setting) misses the cache by key and re-solves everything;
//   - a re-prepare — Session compaction when stale interned slots
//     outgrow the live set, or any fresh Prepare — discards the cache
//     wholesale with the Prepared that owned it; the next solve is cold.
//
// Session.Stats reports the cache's behavior: WarmSolves/ColdSolves count
// rounds that hit the sharded replay path versus rounds solved from zero
// duals, and ComponentsReplayed/ComponentsResolved split each warm round's
// components into replayed and re-run. internal/serve exports the same
// counters per instance, plus a warm-hit ratio gauge, through WriteMetrics.
//
// # The online serving layer: internal/serve and cmd/schedserve
//
// The production shape of the engine is the online service: demands arrive
// at and depart from fixed networks and the system keeps publishing a
// near-optimal feasible selection. internal/serve provides it as a
// library; cmd/schedserve exposes it over HTTP/JSON.
//
// A session actor owns one Session and runs an admission loop: all churn
// submitted since the last round — from any number of concurrent
// submitters — coalesces into one batch, applied with a single
// Session.Update and solved with a single Session.Solve, so N submitters
// cost one delta+solve per round. Each round publishes an immutable
// snapshot (result, epoch, accepted/rejected demand ids, and the item set
// the result was computed from) by an atomic pointer swap: readers are
// lock-free, writers never block on readers, and every published result is
// bitwise reproducible from the items it claims. Submitted churn is
// visible by the submission's returned epoch: every snapshot at that epoch
// or later reflects it. A registry manages a fleet of named instances over
// one bounded worker pool — an actor runs one round per dequeue and
// re-queues behind its peers, so solve concurrency is capped fleet-wide
// and hot instances cannot starve the rest. See cmd/schedserve/README.md
// for the HTTP API and curl walkthrough.
//
// # Observability: recorders, phase spans, and histograms
//
// The solve path is instrumented through one nil-safe seam,
// engine.Recorder (attach via Options.Recorder, engine SetRecorder, or
// dist.Options.Recorder): StartSpan/EndSpan pairs bracket the pipeline's
// phases — prepare, update, apply, component decomposition, per-shard and
// serial first-phase schedules, merge, greedy, and the dist runtime's
// setup/sim/assemble — and Count accumulates solve-path counters (items,
// components, warm replays vs re-solves, granted shard workers, and an
// intra-lanes count that reads 1 per solve). Two rules keep the seam
// compatible with the determinism contract:
//
//   - Recorders observe, never steer. No engine branch reads recorder
//     state; every emission site is a plain nil check. Results are bitwise
//     identical with or without a recorder attached (pinned by the engine,
//     root, and dist equivalence suites), and the nil path costs one
//     pointer test per site — a CI gate holds the no-op-recorder overhead
//     on a full solve under 2%.
//   - The engine side is clock-free. A StartSpan token is opaque to the
//     engine and flows back to EndSpan unchanged, so reading a clock
//     happens only inside the recorder implementation — internal/obs —
//     which lives outside the deterministic package set; schedvet's
//     detsource time.Now ban over lint.DetPackages stays airtight. An
//     abandoned span (error return between Start and End) is simply never
//     accumulated: only EndSpan writes.
//
// Within one solve the non-solve phases nest disjointly under PhaseSolve
// (PhaseMerge is emitted as two segments around PhaseGreedy to preserve
// this), so per-phase totals sum to at most the solve wall; the gap is
// uninstrumented work. obs.Recorder turns the stream into a SolveReport
// (per-phase durations/span counts, counters, WarmHitRatio) with
// Report/Take/Reset windowing; obs also supplies the fixed-bucket log₂
// histograms (doubling bounds, overflow bucket, atomic counts) behind the
// serving layer's latency/solve/queue-wait/batch-size families. The
// simulator keeps its own per-run histograms in simnet.Stats
// (BusyNodeHist, MsgSizeHist — plain arrays, identical across both
// drivers). Egress: cmd/schedserve exports Prometheus text exposition on
// /metrics (validated end-to-end by serve.ValidateExposition, also
// runnable as `schedserve -validate-metrics URL`), JSON on /debug/vars and
// net/http/pprof under -pprof; `schedbench -trace-json` attaches recorders
// to benchmark runs and embeds per-phase breakdowns in the report (for
// diagnosis, not gating — traced rows carry the recorder's small
// overhead).
//
// # Benchmark telemetry: the treesched/bench/v1 schema
//
// `schedbench -bench-json FILE` runs the solve performance suite and
// writes one JSON document (checked-in snapshots are named BENCH_*.json)
// with fields:
//
//   - schema: "treesched/bench/v1"; timestamp (RFC 3339 UTC); go, goos,
//     goarch, cpus, gomaxprocs (additive; 0 in older snapshots): the
//     toolchain and host that produced the numbers; seed, quick: run
//     parameters;
//   - results[]: one entry per (scenario, parallelism) with name, items,
//     components (conflict-graph components of the scenario), mode,
//     parallelism, iters, ns_per_op (best of iters), solves_per_sec,
//     items_per_sec, serial_ns_per_op and speedup_vs_serial (the
//     parallelism-1 run of the same scenario).
//
// Scenarios cover the contended single-component sizes of
// BenchmarkEngineUnitTree (unit-tree/m=48..768), a fleet of disjoint
// networks (unit-tree/fleet; unit-tree/fleet-quick in -quick runs), both
// solved cold and hence serially at every parallelism, the incremental
// churn workloads (churn/m=768, churn-fleet/m=1024), whose ns_per_op is the
// average cost of one Session (Update + Solve) round, the warm-start pair
// (churn-warm/m=768 and its ablation churn-cold/m=768: the same
// component-local fleet churn with the warm cache on and off — snapshotted
// in BENCH_warm_start.json), and the online serving workloads (serve/m=768,
// serve-warm/m=768): an internal/serve session actor absorbing churn from
// concurrent submitters, where ns_per_op is the mean coalesced round
// latency and the additive coalesced_batch field reports the mean
// submissions absorbed per round. parallel-sweep/m=768 solves one contended
// single-component instance cold at worker counts 1/2/4/8 (snapshotted in
// BENCH_intrapar.json); a cold solve runs the serial engine at every count,
// so every row times the same engine.Run, as do the two rows of each
// unit-tree scenario. The recorder-noop/m=768 scenario measures the
// observability seam itself: it interleaves no-op-recorder-attached and
// bare serial solves in one process, in pairs over a fixed time budget,
// reporting the attached cost as ns_per_op against the bare cost in
// serial_ns_per_op (so its speedup column is the overhead ratio, not a
// parallel speedup); one measurement fills both of its rows. `schedbench
// -recorder-gate REPORT -max-overhead 0.02` turns those rows into the
// in-run CI overhead gate.
//
// `schedbench -compare OLD.json NEW.json` diffs two reports by
// (scenario, parallelism) and prints per-size speedups;
// `-max-regression 0.15 -at unit-tree/m=768` (and `-at churn`) turns it
// into the CI regression gate, failing when the matched scenarios' ns/op
// grew beyond the threshold relative to the checked-in snapshot (-at is a
// substring filter on scenario names).
//
// # The Simulate execution path
//
// By default Solve runs the in-process engine (internal/engine): fast, but
// with only estimated communication costs. Setting Options.Simulate routes
// the distributed algorithms through internal/dist instead, which executes
// the same protocol over the synchronous message-passing simulator of
// internal/simnet — one processor per demand, stepped by the batched round
// scheduler (see "Distributed scale" below).
// Each processor derives the fixed epoch/stage/step schedule of Figure 7
// locally from common knowledge (the engine.Plan) and runs Luby-MIS step
// elections over real messages. Both executions funnel every dual mutation
// through the shared protocol core (engine.Core) and draw priorities from
// identical per-processor PRNG streams, so the simulated run returns
// bit-identical selections and profit — Simulate changes what is measured,
// never what is computed. For arbitrary heights, the wide and narrow
// sub-protocols are simulated separately and combined per resource (§6).
//
// # Round accounting
//
// With Simulate set, Result.Rounds / Messages / MaxMessageSize report
// honest costs. Rounds counts the full fixed synchronous schedule,
// 1 + T·(2B+1) rounds for T = epochs·stages·stepCap steps and Luby budget
// B = O(log N) — the quantity the round bounds of Theorems 5.3/7.1 speak
// about, independent of how much of the schedule was actually busy. The
// simulator fast-forwards idle rounds (no processor would send or mutate
// state) but still counts them; internal/dist's Stats.BusyRounds exposes
// the rounds that moved messages, and experiment E12 tabulates the
// decomposition.
//
// # Distributed scale: the batched million-demand runtime
//
// internal/dist executes under two interchangeable simnet drivers. The
// original goroutine driver (dist.DriverGoroutine) runs one goroutine per
// processor with a per-round channel handshake — faithful, but a million
// demands means a million goroutines stepped every round. The batched
// driver (dist.DriverBatched, the default) makes the same execution scale:
//
//   - Shared-layout nodes: every processor reads the engine's interned
//     dense layout (views, critical sets, and the edge member lists its
//     conflict test searches) through one immutable run context instead of
//     copying critical sets and conflict maps per node. The run context
//     derives each item's target nodes and the node topology from those
//     member lists once, at setup. Private per-node state shrinks to its dual slots,
//     PRNG stream, live-set bits and pooled message buffers — a few KB per
//     demand, dominated by per-neighbor outbox buckets, and reported as
//     Result.NodeStateBytes/SharedStateBytes.
//   - Batched round delivery: a round scheduler buckets committed outboxes
//     into per-recipient inbox slices (ascending-sender append order is
//     delivery order — no sorting), steps only nodes with mail or a due
//     spontaneous action on a bounded worker pool, and commits results in
//     ascending node order. Worker count cannot affect results.
//   - O(components) fast-forward: the earliest next-active round is
//     tracked per conflict component in a lazy min-heap, so skipping the
//     idle stretches of the fixed schedule costs O(log components) per
//     executed round rather than a full-network scan.
//
// Both drivers produce bit-identical Results and identical simnet Stats —
// asserted pairwise (and against the in-process engine) by the equivalence
// and fuzz suites of internal/dist. On fleet workloads the batched driver
// solves 100k demands in seconds and a million demands in minutes
// end-to-end (see BENCH_dist.json and `schedbench -dist-smoke`), a scale
// at which the goroutine driver is not practical.
//
// # Determinism rules: the schedvet static-analysis suite
//
// The bitwise guarantee (serial ≡ parallel ≡ distributed ≡ warm-replay)
// is enforced statically by cmd/schedvet, a multichecker over
// internal/lint that CI runs at zero tolerance. The deterministic
// package set — lint.DetPackages, derived from (and meta-tested
// against) the transitive import closure of the bitwise-equivalence
// suites in internal/engine, internal/dist and internal/seq — currently
// comprises decomp, dist, dual, engine, graph, mis, model, seq and
// simnet. Inside it:
//
//   - maprange: no `range` over a map. Go randomizes map iteration
//     per run, so any order-observing loop (summing float64s, appending
//     to a slice) silently breaks reproducibility — the PR 3
//     combinePerResource last-ulp bug. Iterate
//     slices.Sorted(maps.Keys(m)) instead, or waive a genuinely
//     commutative loop.
//   - detsource: no math/rand (v1 or v2), time.Now, time.Since,
//     os.Getenv/LookupEnv/Environ. Randomness flows through the seeded
//     splitmix64 engine.Stream; clocks and environment belong to the
//     layers above the solve path (serve, cmd).
//
// Everywhere (any package):
//
//   - hotpath: a function whose doc comment carries //schedvet:hot may
//     not allocate maps, call fmt, defer, or box concrete values into
//     interfaces — locking in the allocation-free shape of the
//     solve/merge/Apply loops (PRs 4–6). The item builder's walk
//     (decomp.Layered.Walk and engine.DemandItems), the raise primitives
//     (dual.RaiseUnit/RaiseNarrow/AddBeta/MergeSlots), the satisfaction
//     verdict (dual.Meets), the compacted per-step scan (state.scanLive,
//     state.retest), the group-form elections
//     (state.independentSet, mis.Luby, mis.Greedy), the greedy second
//     phase, the shard merge and Prepared.Apply are annotated.
//   - waiverhygiene: every //schedvet: directive must parse, bind, and
//     pull its weight. The waiver grammar is
//     `//schedvet:ok <analyzer> <reason>` on the flagged line or the
//     line above; a missing reason, an unknown analyzer, or a waiver
//     that no longer suppresses anything is itself a finding.
//
// Run `go run ./cmd/schedvet ./...` before sending a change;
// CONTRIBUTING.md documents the workflow.
package treesched
