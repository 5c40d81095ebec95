package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"treesched/internal/engine"
	"treesched/internal/obs"
)

// clock is the run's time origin; every span and op offset is measured
// from it on the monotonic clock.
var clock = time.Now()

func now() time.Duration { return time.Since(clock) }

// span is one call the benchmark made into a public entry point. Spans of
// one op share its op id (-1 outside the timed region); Parent is the id
// of the enclosing span (-1 at the root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is how the untraced runs use it.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	start := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: start})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// record adds an already-timed span (an op, whose bounds the client takes
// anyway for its latency).
func (t *tracer) record(name string, op, parent int, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// phases is what one op's recorder window held: per-phase time and span
// counts and the engine counters, read with obs.Recorder.Take right after
// the op returns so the totals attach to that op.
type phases struct {
	ns       [engine.NumPhases]int64
	spans    [engine.NumPhases]int64
	counters [engine.NumCounters]int64
}

// takePhases closes the recorder's window. A nil recorder gives nil.
func takePhases(rec *obs.Recorder) *phases {
	if rec == nil {
		return nil
	}
	rep := rec.Take()
	p := &phases{}
	for _, ps := range rep.Phases {
		for i := 0; i < engine.NumPhases; i++ {
			if engine.Phase(i).String() == ps.Phase {
				p.ns[i] = int64(ps.Total)
				p.spans[i] = ps.Spans
			}
		}
	}
	c := &p.counters
	c[engine.CounterItems] = rep.Items
	c[engine.CounterComponents] = rep.Components
	c[engine.CounterComponentsReplayed] = rep.ComponentsReplayed
	c[engine.CounterComponentsResolved] = rep.ComponentsResolved
	c[engine.CounterShardWorkers] = rep.ShardWorkers
	c[engine.CounterIntraLanes] = rep.IntraLanes
	return p
}

// phaseLayers sets the per-layer metrics every workload derives the same
// way: recorder phases and counters as means per op, engine.solve_gap_ms as
// the solve phase's self time (its span minus its child phases), and
// decomp.layered_ms from the setup's engine.LayeredForTree spans.
func phaseLayers(ops []opSample, tr *tracer, m map[string]float64) {
	var sum phases
	for _, op := range ops {
		if p := op.phases; p != nil {
			for i := range sum.ns {
				sum.ns[i] += p.ns[i]
				sum.spans[i] += p.spans[i]
			}
			for i := range sum.counters {
				sum.counters[i] += p.counters[i]
			}
		}
	}
	n := float64(len(ops))
	ms := func(p engine.Phase) float64 { return float64(sum.ns[p]) / 1e6 / n }
	for name, p := range map[string]engine.Phase{
		"treesched.update_ms":    engine.PhaseUpdate,
		"engine.prepare_ms":      engine.PhasePrepare,
		"engine.apply_ms":        engine.PhaseApply,
		"engine.components_ms":   engine.PhaseComponents,
		"engine.serial_solve_ms": engine.PhaseSerialSolve,
		"engine.shard_solve_ms":  engine.PhaseShardSolve,
		"engine.merge_ms":        engine.PhaseMerge,
		"engine.greedy_ms":       engine.PhaseGreedy,
		"dist.setup_ms":          engine.PhaseDistSetup,
		"dist.sim_ms":            engine.PhaseDistSim,
		"dist.assemble_ms":       engine.PhaseDistAssemble,
	} {
		m[name] = ms(p)
	}
	m["engine.solve_gap_ms"] = ms(engine.PhaseSolve) - ms(engine.PhaseComponents) - ms(engine.PhaseShardSolve) -
		ms(engine.PhaseSerialSolve) - ms(engine.PhaseMerge) - ms(engine.PhaseGreedy)
	m["engine.items"] = float64(sum.counters[engine.CounterItems]) / n
	m["engine.components"] = float64(sum.counters[engine.CounterComponents]) / n
	if solves := sum.spans[engine.PhaseSolve]; solves > 0 {
		m["engine.intra_lanes"] = float64(sum.counters[engine.CounterIntraLanes]) / float64(solves)
	}
	var layered []float64
	for _, s := range tr.spans {
		if s.Name == "engine.LayeredForTree" {
			layered = append(layered, float64(s.End-s.Start)/1e6)
		}
	}
	if len(layered) > 0 {
		var total float64
		for _, v := range layered {
			total += v
		}
		m["decomp.layered_ms"] = total / float64(len(layered))
	}
}

// writeTrace writes the spans and each op's recorder totals as JSON lines.
func writeTrace(path string, t *tracer, ops []opSample) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for i, op := range ops {
		if op.phases == nil {
			continue
		}
		rec := struct {
			Op       int              `json:"op"`
			Phases   map[string]int64 `json:"phase_ns"`
			Counters map[string]int64 `json:"counters"`
		}{Op: i, Phases: map[string]int64{}, Counters: map[string]int64{}}
		for p, ns := range op.phases.ns {
			if op.phases.spans[p] > 0 {
				rec.Phases[engine.Phase(p).String()] = ns
			}
		}
		for c, n := range op.phases.counters {
			rec.Counters[engine.Counter(c).String()] = n
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
