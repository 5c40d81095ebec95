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
// Solve is NewSolver(opts).Solve(in): every solve builds its items and
// interns them into the dense dual layout — in the same walk, when the
// algorithm resolves to DistributedUnit — in storage pooled across solves
// (engine.Arena), and its serial engine run reads no other structure: the
// member lists that encode the §2 conflict graph are built only by their
// first reader, which a cold solve never is. For batch use — many demand
// sets on fixed networks — keep one Solver: it carries one Options and
// caches the one part of preparation that recurs, each network's layered
// decomposition, keyed by network structure. Whole instances are not
// cached: no caller re-solves an identical instance, so keying every solve
// by its full content, and holding the prepared state, bought nothing.
//
//	s := treesched.NewSolver(treesched.Options{Epsilon: 0.1})
//	res1, _ := s.Solve(inst1) // decomposes the networks, caches them
//	res2, _ := s.Solve(inst2) // same networks: decompositions from cache
//
// Preparing one network has two parts, each O(n log n) time and a
// constant number of allocations at every size: AddTree builds the tree
// (sorted adjacency in one array, parent and depth, and an O(1) LCA
// table), and the first solve on the network builds its ideal
// decomposition (Lemma 4.1) and layered wrapper. On 2 vCPUs the tree takes
// about 9 µs at 256 vertices and 210 µs at 4,096 (BenchmarkNewTree, 6
// allocations), the decomposition about 17 µs at 255 vertices and 620 µs
// at 4,095 (BenchmarkIdealDecomposition, 8 allocations). A Solver, and
// every Session it opens, decomposes each network structure once; a server
// that opens a fresh Solver per tenant, as internal/serve's
// Registry.Create does, pays for the decomposition of every network of
// every tenant it creates.
//
// A Solver is safe for concurrent use. For churn — demands arriving and
// departing between solves — open a Session (Solver.Session): it applies
// each Update as an engine delta and replays the conflict components the
// churn left untouched (see "Warm-started solves" below).
//
// # Component shards for replay; cold solves run serially
//
// The conflict graph of §2 decomposes into connected components that never
// exchange messages, so the epoch/stage/step schedule can run per
// component and merge back into the serial execution exactly. The engine
// uses that locality for one thing: replay. A Session keeps the warm-start
// cache on (see "Warm-started solves" below), and its solves run the
// sharded pipeline — the component decomposition (a union–find over the
// items' views), the schedule of each component churn touched, run in
// place over the global views and one dual the prepared state keeps, on
// min(Options.Parallelism, runnable components) goroutines, the cached
// outcome of every other, and the deterministic merge, which keeps
// running totals. The components live in one table of shards, in no
// order: the first pass builds it over every item, and every later pass
// drops the shards churn reached and appends the components it finds
// among their items and the arrivals. After churn, the pass, the runs and
// the merge cost only the components the churn reached. A single
// component is a table of one, which owns its groups as any shard does,
// so the pass after churn is incremental whatever the table holds, and a
// component a departure leaves alone keeps its shard, and its cached
// outcome, until arrivals split the set again. A Session whose table
// holds one component (a contended instance) skips the pass and solves
// serially at every Parallelism until its Updates have added more than
// 2·items+64 items since that pass: one shard would be the serial
// execution plus a merge, and repeating the pass every round to find one
// component again made contended rounds at Parallelism 2 take 1.4–2.7
// times as long as at Parallelism 1. The expiry makes a Session that grew
// into many components look at them again after O(items) churn.
//
// Every other solve is cold: Solver.Solve, the package-level Solve and
// SolveLine, both §6 height classes, and the engine solve under Simulate. A
// cold solve has nothing to replay, so it runs the serial engine on the
// calling goroutine whatever its Parallelism.
// Splitting one did not pay at any size measured. When cold solves still
// split, sharding fleets across components and row-partitioning the
// raises, greedy tests and λ fold of a single component across lanes,
// Parallelism 2 lost to Parallelism 1 on every shape (a cold Prepare and
// Solve, 2 vCPUs, median of seven alternating runs, five for
// fleets): contended instances of 736, 3,085, 12,202 and 49,222 items took
// 0.42 vs 0.94, 2.5 vs 3.1, 8.8 vs 12.2 and 41 vs 66 ms, and fleets of
// 768–32,768 items in 14–610 components took 2.9–3.3 times as long. The
// component pass, the per-shard state and the merge cost more than the
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
// the most Luby iterations any of them took, λ is a min, and the profit
// and the dual value are exact sums, each exact in any association. So a
// sharded solve returns the serial engine's selections, profit, λ, dual
// bound and (traced) trace bit for bit at every worker count —
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
// a fuzz target). Every dual assignment is dense over a complete index:
// every demand id and every EdgeKey of an item set is interned once, before
// any assignment over it exists, into contiguous int32 slots in first-seen
// order (internal/dual.Index), α and β live in flat []float64 slices with
// a slot for each, and each item carries precomputed index lists for its
// path and critical set, so satisfaction scans, raises, the β-replay of
// announced raises, and the greedy second phase are tight loops over int
// slices with no map hashing. The distributed algorithms and the
// sequential Appendix-A algorithm share this state: Appendix A runs on the
// engine's prepared views, its greedy second phase and its scoring rule.
// Interning itself hashes only where the key
// space is sparse. Edge keys go through one table per network, indexed by
// edge id (internal/model.EdgeInterner): tree edge ids are below the
// network's vertex count, so a lookup is two slice loads. The tables
// together hold at most two int32 cells per path entry they index, the
// bytes of the entries' own EdgeKeys; a key past that budget (a line slot
// id is any int the caller picks) converts the interner once to a map,
// keeping every index. Demand ids go through internal/model.IDInterner,
// and a demand's slot also names its processor, the paper's one owner per
// demand, whose priority stream its items draw from: a cold build's ids
// are 0..m−1 in order, so the slot is the id, and the first other id or
// the first freed slot (a Session's first departure) converts it once to a
// map. The invariants that keep the three executions — serial engine,
// sharded pipeline, message-passing simulation — bitwise equal are
// unchanged: indices are a pure storage relabeling (each execution owns
// its own index scope, and values compare by external key through
// AlphaMap/BetaMap, the one key-addressed view),
// the arithmetic applies the same deltas to the same logical variables in
// the same order as a map-backed representation (asserted by replays
// through map-backed state, of the engine's traces and of Appendix A's),
// and the dual objective adds its values exactly and
// rounds once, so its bits depend on neither slot numbering nor order
// (pinned against a math/big sum by an oracle test and two fuzz targets).
//
// Luby election priorities come from per-owner splitmix64 streams
// (engine.NewStream), replacing the earlier math/rand sources whose
// 607-word seeding tables dominated fragmented runs. Engine and simulation
// switched streams in the same commit and still seed identically per
// (seed, owner), so they remain bit-identical to each other; absolute
// outputs for a given seed differ from pre-switch releases.
//
// # Incremental state: Sessions, deltas, and their invariants
//
// Preparation of a tree instance is one walk per demand instance, after a
// sizing pass, and one more pass on first read. The sizing pass computes
// each instance's LCA, once, and its path length. The walk
// (decomp.Layered.Walk, Lemma 4.2) climbs from both endpoints to that LCA
// writing the path's edge keys, tracks µ(d) on the way and finds π(d)'s
// wings by depth arithmetic, as positions on the path (every edge of π(d)
// is a wing of a path vertex). Right after it, the same loop interns the path
// in path order through its network's edge table, reads π(d)'s keys and
// indices off the path's by position, and writes the item, its dense view
// and its plan statistics, every kind into one slab shared by the item set
// (engine.PrepareDemands, which Solver.Solve and Solver.Session call when
// the algorithm resolves to DistributedUnit). Items that arrive already
// built — a Session's arrivals (engine.DemandItems, the same loop without
// the interning), line items, §6 height classes — are interned by a
// second pass over them (engine.PrepareRecorded) into the same numbering:
// first-seen order over the items' paths. Grouping lists, per
// interned demand slot and per edge index, the ascending items it holds,
// by array indexing over the views (no second hashing of the same keys).
// By §2 two items conflict iff they share a demand or an edge, so these
// member lists are a clique cover of the conflict graph, and the engine
// stores nothing else: the Luby election compares priorities per group,
// and the component decomposition walks from item to item
// through shared groups. Preparation thus costs O(Σ |path|) rather than
// the O(Σ deg) of an adjacency, which on a contended instance is an order
// of magnitude more. A serial solve reads each item's groups off its view
// and never the lists, and neither does the component pass, a union–find
// over the views. So the demand lists are built by their first reader —
// Apply or a Session's departure lookup, once, at its first Update — and
// the edge lists by the simulator, for each run; a cold solve builds
// neither.
//
// For churning workloads the prepared state is a value to update, not to
// rebuild. Solver.Session pins a solver to one instance whose networks are
// fixed; Session.Update applies demand arrivals and departures as an
// engine-level delta (engine.Prepared.Apply). A delta may touch:
//
//   - the item slice: survivors stranded past the new length compact down
//     into freed slots, arrivals fill the remaining slots and append —
//     every id stays equal to its position;
//   - the dense layout: a demand whose last item departs frees its slot,
//     the next arriving demand takes the most recently freed one, and the
//     rest intern at the end, so a Session holds no more demand slots than
//     the most live demands a round has seen (those before it plus its
//     arrivals), however long it runs. Edge indices are never freed, at
//     most one per tree edge. A slot no view references holds zero in
//     every fresh per-run assignment and is never read by a component's
//     run, so it cannot influence a raise, a satisfaction test, or the
//     dual objective (an exact sum, which skips zeros), and no slot
//     numbering reaches a result. Demand slots stay the identity until
//     the first departure frees one;
//   - the demand member lists of exactly the slots the churn reached: they
//     filter out departed items (preserving their sort order) and merge in
//     arriving ones (assigned in ascending id order), so nothing is
//     re-sorted. The edge member lists, which only the simulator reads,
//     are not kept: it builds them for each run;
//   - the lazily-built shard table, which the next component pass
//     refreshes in place, keeping the shard of every component the churn
//     never touched. Each demand slot and edge index records the shard
//     that owns it, a table of one's too, so the churn finds the
//     components it reached through the groups its items leave and join.
//
// Determinism is unchanged: a Session's solve is bitwise identical to
// preparing its current item set from scratch, at every worker count — the
// incremental-state suite (internal/engine delta tests and fuzz target)
// asserts member lists, components, layout semantics, and solve results after
// arbitrary delta sequences. An update costs the size of the delta and of
// the demand member lists the churned items belong to, so it pays off
// even without locality: measured on a 2-vCPU host, BenchmarkApplyDelta (5% of a
// 768-demand, single-component instance churned) runs about 10x faster
// than BenchmarkPrepareCold rebuilding it, and on a fleet of disjoint
// networks where a round churns one network the gap is about 20x
// (BenchmarkApplyDeltaFleet vs BenchmarkPrepareColdFleet).
//
// A Session keeps one prepared state for its whole life. Sessions are
// observable: Session.Stats reports the live set size, its item count, the
// last delta's size and the warm-cache counters below. Update is atomic
// (a batch with one invalid arrival or removal rejects as a whole, with no
// partial churn and no burned ids), and Session.SolveWithItems returns the
// solve result together with an immutable view of the item set it was
// computed from and the live demand count, captured under one lock
// acquisition — the epoch-consistency primitive concurrent readers build
// on. Its second result is an engine.ItemsView, no longer an item slice:
// the engine keeps a base copy of the items and a log of the writes each
// Update makes after it, so a view costs O(1) and copies items only to
// take a fresh base once the log outgrows the set (O(1) amortized per
// written item), and it materializes the items when asked
// (ItemsView.Items). The prepared state is the one record of the live
// demand set: a demand is live while it has items, so Update checks each
// departure and collects its items with one lookup
// (engine.Prepared.ItemsOfDemand), and the session keeps only a count. The
// live ids are the distinct demands of the items; a reader that wants the
// admitted and rejected demands derives them from the items and the
// assignments (internal/serve's Snapshot.Rejected).
//
// # Warm-started solves: replaying untouched components across churn
//
// Churn is usually local: a round's delta reaches a few conflict
// components and leaves the rest identical. Because a component shares no
// demand and no edge with any other, its first-phase execution — the raise
// stack with schedule stamps, its own α and β, its λ contribution, and
// its trace — is a pure function of its own items, the solve
// configuration, and the seed. Sessions therefore enable the
// engine's warm-start cache: after every sharded solve, each component's
// outcome is recorded keyed by its prepared shard and the configuration
// (mode, seed, ε, the plan's ξ, single-stage ladder, trace recording);
// the next solve replays cached outcomes for components the churn never
// reached and re-runs the schedule only where the item set changed, with
// the shared deterministic merge reassembling the global Result. The
// greedy second phase is component-local too — an item's feasibility reads
// only its own demand's and path edges' usage — so each re-run component
// also pops its own stack through the greedy rule and its selection is
// cached and replayed with the rest. The merge keeps running totals
// across solves — the exact sums of the components' partial dual sums and
// of their selected profits, and a bitset of the selected items — and
// folds in the outcomes of the re-run components and out those they
// replace (the subtraction is exact too), so a round's merge costs the
// components the churn reached, not the fleet. Selected is one scan of the
// bitset, and the profit, as in every execution, the exact sum of the
// selected profits, rounded once, so no order of the steps or of the
// selection is rebuilt. The schedule
// statistics (Steps, MISIters) and the trace, which a Session never
// reads, are rebuilt from the cached stacks only for a traced solve. A
// warm solve reads no item to plan: the plan's item statistics (∆, ℓmax,
// the profit and height ranges) are kept by each Update's delta, and only
// a departure that takes the last holder of a profit or height extreme
// makes the engine gather them again.
//
// Warm results are bitwise identical to cold solves — same selections,
// profit, λ, dual bound, and trace — because nothing on the replay path
// re-does arithmetic in an order the replay could change: the merged
// global λ is a min over per-shard minima (order-independent, no
// arithmetic), the dual objective is the exact sum of the components'
// exact partial sums, kept with each component's outcome, and the profit
// is the exact sum of the selected profits, both of which round to the
// same bits in any grouping and whichever components were replayed. The
// components run in one dual, each in its own entries, which it zeroes
// before it runs, so a replayed component's entries stay its recorded
// run's; the engine's tests read that dual and compare every α and β. Stream drift cannot occur:
// per-owner PRNG streams are re-seeded per run from (seed, owner), so a
// replayed component's recorded draws are exactly the draws a re-run would
// make. The warm≡cold property is pinned by the incremental-state suite
// across multi-round churn sequences, seeds, worker counts, and
// unit/arbitrary modes.
//
// Cached component state invalidates exactly when its inputs change:
//
//   - a touched component — Apply marks stale, through the owners its
//     groups record, the component of every departed item and every
//     component that owns a group an arrival joined — is joined up again
//     with the arrivals (a union–find over their views) and re-solved
//     (the others are not even visited: a component none of whose groups
//     changed is still closed, so churn cannot reach it without touching
//     it);
//   - a configuration change (different Options, ε, seed, mode, or trace
//     setting) misses the cache by key and re-solves everything, which
//     includes a ∆ or a height range that churn moved so far as to move ξ;
//   - a profit range that churn moved changes the Lemma 5.1 step cap, which
//     only stops a run: a cached outcome replays while each of its stages
//     ended below the new cap, and re-runs, failing as a cold solve would,
//     once one reached it;
//   - a fresh Prepare starts with an empty cache; a Session prepares once,
//     so its first solve is its only cold one while the key holds.
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
// snapshot (result, epoch, accepted demand ids, live count, and the item
// set the result was computed from, which yields the rejected ids on
// request) by an atomic pointer swap: readers are lock-free, writers never
// block on readers, and every published result is bitwise reproducible
// from the items it claims. Submitted churn is visible by the
// submission's returned epoch: every snapshot at that epoch or later
// reflects it. A registry manages a fleet of named instances over one
// bounded worker pool — an actor runs one round per dequeue and
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
// components, warm replays vs re-solves, granted shard workers, greedy
// feasibility tests, an intra-lanes count that reads 1 per solve, the
// exact work of a warm round — items the component pass visits, items of
// the new shards it makes, demand lists Apply patches, outcomes the merge
// folds in or out — and of every solve and simulated run; see "Exact
// work" below).
// Two rules keep the seam compatible with the determinism contract:
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
// Within one solve the non-solve phases nest disjointly under PhaseSolve,
// so per-phase totals sum to at most the solve wall; the gap is
// uninstrumented work. obs.Recorder turns the stream into a SolveReport
// (per-phase durations/span counts, counters, WarmHitRatio) with
// Report/Take/Reset windowing; obs also supplies the fixed-bucket log₂
// histograms (doubling bounds, overflow bucket, atomic counts) behind the
// serving layer's latency/solve/queue-wait/batch-size families. The
// simulator keeps its own per-run histograms in simnet.Stats
// (BusyNodeHist, MsgSizeHist — plain arrays, deterministic per run).
// Egress: cmd/schedserve exports Prometheus text exposition on
// /metrics (validated end-to-end by serve.ValidateExposition, also
// runnable as `schedserve -validate-metrics URL`), JSON on /debug/vars and
// net/http/pprof under -pprof; `perfbench/run.sh --trace 1` attaches a
// recorder to the benchmark's ops and reports per-layer phase times and
// counters beside the end-to-end metrics (for diagnosis, not gating —
// traced runs carry the recorder's small overhead).
//
// # Exact work: the work golden
//
// CI gates the solve path's work by exact counts, which do not drift with
// the host the way timings do. TestWorkGolden (work_test.go) attaches a
// counting recorder to five fixed-seed scenarios at Parallelism 1 and
// compares every counter, with the Result's schedule counts, exactly
// against testdata/work.golden:
//
//   - cold-contended: a cold engine solve at perfbench's solve-contended
//     shape (3 networks of 256 vertices, 384 demands, access 1–3), whose
//     line must be the same at 1, 2, 4 and 8 workers; cold-fleet: one at
//     serve-fleet's shape (16 networks of 256 vertices, 768 pinned
//     demands). Both add Steps, MISIters and Raised;
//   - warm-fleet and warm-contended: one warm Session round on each shape
//     (Update, then SolveWithItems), after the Session's first solve;
//   - simulate-dist-fleet: a Simulate solve at dist-fleet's shape (32
//     networks of 64 vertices, 2,048 pinned demands), adding Rounds and
//     Messages.
//
// Besides the warm-round counters above, the counters of work are
// member_entries (member-list entries written when the demand lists are
// built on first read or the edge lists on the simulator's read, and an
// Apply's filters keep and arrivals append; 0 on a cold solve, which
// builds none), scan_rows and scan_betas (first-phase
// rows whose LHS scanLive and retest evaluate, and the β entries they
// read), mis_iters (Luby iterations), greedy_tests (one per raised item),
// and in the simulator node_rounds (Round calls on its nodes) and
// item_tests (the satisfaction tests of NextActiveRound, hasUnsatisfied
// and beginStep). A change that moves the work regenerates the golden with
// `go test . -run WorkGolden -update` and says why. Allocations are gated
// beside it by TestColdSolveAllocs, TestSessionRoundAllocs and
// internal/serve's TestServeRoundAllocs. Timings come from perfbench
// (perfbench/run.sh, perfbench/steady.py), as medians with spreads; the one
// timing gate, `schedbench -recorder-gate`, compares solves within one
// run.
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
// sub-protocols are simulated separately and combined per resource (§6),
// through engine.SolveHeightClasses, the one §6 rule the in-process solve
// runs too. SequentialTree and ExactSmall have no distributed execution,
// so Solve and SolveLine reject Simulate with them.
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
// internal/dist executes over simnet's one round loop, Network.Run. It
// does not run a goroutine per processor or step every processor every
// round; three ideas make a million demands simulable:
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
// The equivalence and fuzz suites of internal/dist assert bit-identical
// Results against the in-process engine and pin the simnet Stats of every
// equivalence case in a checked-in golden. On fleet workloads the runtime
// solves 100k demands in seconds and a million demands in minutes
// end-to-end (see `schedbench -dist-smoke`).
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
//     to a slice) silently breaks reproducibility — the last-ulp bug the
//     §6 per-resource combine once had. Iterate
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
//     solve/merge/Apply loops (PRs 4–6). The item builder's walk and
//     the fused preparation around it (decomp.Layered.Walk and the engine
//     loop behind DemandItems and PrepareDemands, with
//     model.EdgeInterner.InternPath), the raise primitives
//     (dual.RaiseUnit/RaiseNarrow/AddBeta), the exact sum (dual.Sum.Add,
//     Merge and Sub, Assignment.Value, AddTo and AddEntriesTo), the
//     satisfaction verdict (dual.Meets), the compacted per-step scan
//     (state.scanLive, state.retest), the group-form election
//     (state.independentSet, mis.Luby), the greedy second phase, the
//     component pass's union–find, a shard's run in place and its
//     bucketing, the merge's folds, and Prepared.Apply are annotated.
//   - waiverhygiene: every //schedvet: directive must parse, bind, and
//     pull its weight. The waiver grammar is
//     `//schedvet:ok <analyzer> <reason>` on the flagged line or the
//     line above; a missing reason, an unknown analyzer, or a waiver
//     that no longer suppresses anything is itself a finding.
//
// Run `go run ./cmd/schedvet ./...` before sending a change;
// CONTRIBUTING.md documents the workflow.
package treesched
