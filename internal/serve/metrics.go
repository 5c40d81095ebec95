package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"treesched/internal/obs"
)

// WriteMetrics renders the fleet's operational metrics in the Prometheus
// text exposition format (hand-rolled; the module takes no dependencies):
// per-instance round counters, latency accumulators, coalesced batch
// sizes, and live-demand/profit gauges from the latest snapshot. Instances
// are emitted in name order so scrapes are diffable.
func (r *Registry) WriteMetrics(w io.Writer) {
	r.mu.Lock()
	actors := make([]*Actor, 0, len(r.actors))
	for _, a := range r.actors {
		if a != nil {
			actors = append(actors, a)
		}
	}
	r.mu.Unlock()
	sort.Slice(actors, func(i, j int) bool { return actors[i].name < actors[j].name })

	// Gather each actor's stats and snapshot once, so a scrape takes the
	// session mutex once per instance (not once per metric) and all of an
	// instance's series come from the same instant.
	type row struct {
		label string
		st    ActorStats
		snap  *Snapshot
		h     ActorHists
	}
	rows := make([]row, len(actors))
	for i, a := range actors {
		rows[i] = row{label: escapeLabel(a.name), st: a.Stats(), snap: a.Snapshot(), h: a.Hists()}
	}

	fmt.Fprintf(w, "# HELP schedserve_instances registered instances\n# TYPE schedserve_instances gauge\nschedserve_instances %d\n", len(rows))
	emit := func(metric, typ, help string, value func(r *row) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", metric, help, metric, typ)
		for i := range rows {
			fmt.Fprintf(w, "%s{instance=%q} %s\n", metric, rows[i].label, value(&rows[i]))
		}
	}
	// emitHist renders one histogram family: cumulative _bucket series per
	// instance culminating in +Inf, then _sum and _count. _count is derived
	// from the same snapshot as the buckets, so the two always agree even
	// when a scrape races observations.
	emitHist := func(metric, help string, snap func(r *row) obs.HistSnapshot) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", metric, help, metric)
		for i := range rows {
			s := snap(&rows[i])
			cum := int64(0)
			for b, c := range s.Counts {
				cum += c
				le := "+Inf"
				if b < len(s.Bounds) {
					le = strconv.FormatFloat(s.Bounds[b], 'g', -1, 64)
				}
				fmt.Fprintf(w, "%s_bucket{instance=%q,le=%q} %d\n", metric, rows[i].label, le, cum)
			}
			fmt.Fprintf(w, "%s_sum{instance=%q} %g\n", metric, rows[i].label, s.Sum)
			fmt.Fprintf(w, "%s_count{instance=%q} %d\n", metric, rows[i].label, cum)
		}
	}
	emit("schedserve_epoch", "counter", "latest published snapshot epoch",
		func(r *row) string { return fmt.Sprintf("%d", r.snap.Epoch) })
	emit("schedserve_rounds_total", "counter", "coalesced churn rounds run",
		func(r *row) string { return fmt.Sprintf("%d", r.st.Rounds) })
	emit("schedserve_submissions_total", "counter", "churn submissions coalesced into rounds",
		func(r *row) string { return fmt.Sprintf("%d", r.st.Submissions) })
	emit("schedserve_submissions_failed_total", "counter", "churn submissions rejected",
		func(r *row) string { return fmt.Sprintf("%d", r.st.Failed) })
	emitHist("schedserve_round_latency_seconds", "round wall time (update+solve+publish)",
		func(r *row) obs.HistSnapshot { return r.h.RoundLatency })
	emit("schedserve_round_latency_seconds_max", "gauge", "worst round wall time",
		func(r *row) string { return fmt.Sprintf("%g", r.st.MaxLatency.Seconds()) })
	emitHist("schedserve_solve_seconds", "session solve time within a round",
		func(r *row) obs.HistSnapshot { return r.h.SolveSeconds })
	emitHist("schedserve_queue_wait_seconds", "delay between a kick and its round starting",
		func(r *row) obs.HistSnapshot { return r.h.QueueWait })
	emitHist("schedserve_batch_size", "submissions coalesced per round",
		func(r *row) obs.HistSnapshot { return r.h.BatchSize })
	emit("schedserve_last_batch", "gauge", "submissions coalesced into the latest round",
		func(r *row) string { return fmt.Sprintf("%d", r.snap.Batch) })
	emit("schedserve_live_demands", "gauge", "live demands at the latest epoch",
		func(r *row) string { return fmt.Sprintf("%d", r.snap.Live) })
	emit("schedserve_accepted_demands", "gauge", "demands scheduled at the latest epoch",
		func(r *row) string { return fmt.Sprintf("%d", len(r.snap.Accepted)) })
	emit("schedserve_profit", "gauge", "scheduled profit at the latest epoch",
		func(r *row) string { return fmt.Sprintf("%g", r.snap.Result.Profit) })
	emit("schedserve_session_reprepares_total", "counter", "session re-prepares (always 0: a session reuses departed demands' slots)",
		func(r *row) string { return fmt.Sprintf("%d", r.st.Session.Reprepares) })
	emit("schedserve_session_warm_solves_total", "counter", "solves that replayed at least one cached component",
		func(r *row) string { return fmt.Sprintf("%d", r.st.Session.WarmSolves) })
	emit("schedserve_session_cold_solves_total", "counter", "solves that replayed nothing (first solves, config changes, serial bypass)",
		func(r *row) string { return fmt.Sprintf("%d", r.st.Session.ColdSolves) })
	emit("schedserve_session_warm_hit_ratio", "gauge", "fraction of per-solve component executions replayed from the warm dual cache",
		func(r *row) string {
			replayed := r.st.Session.ComponentsReplayed
			total := replayed + r.st.Session.ComponentsResolved
			if total == 0 {
				return "0"
			}
			return fmt.Sprintf("%g", float64(replayed)/float64(total))
		})
}

// escapeLabel makes a name safe inside a Prometheus label value (the %q
// verb adds the quotes; this handles what %q would double-escape wrongly —
// nothing — so it only strips newlines defensively).
func escapeLabel(s string) string {
	return strings.NewReplacer("\n", " ", "\r", " ").Replace(s)
}
