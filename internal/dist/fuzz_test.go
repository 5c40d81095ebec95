package dist_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/simnet"
	"treesched/internal/workload"
)

// FuzzEngineEquivalence cross-checks the message-passing protocol against
// the in-process engine on randomized instances: for any instance the
// generator accepts and the engine solves, the distributed execution must
// return the identical selection, profit, λ, dual bound and dual,
// and its Stats must satisfy the simulator's accounting invariants. heights
// selects, mod 3, unit heights, narrow heights, or mixed heights; a mixed
// instance runs the §6 rule of engine.SolveHeightClasses over dist.Run,
// checks each class's run against the engine, and requires the combined
// selection and profit bits of engine.SolveArbitrary. The seed corpus
// covers every height setting, several profit spreads and both ε regimes;
// `go test` replays the corpus, `go test -fuzz=FuzzEngineEquivalence`
// explores further.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), int64(1), uint8(0), uint8(8), uint8(0))
	f.Add(int64(2), int64(9), uint8(3), uint8(6), uint8(0))
	f.Add(int64(3), int64(5), uint8(1), uint8(10), uint8(1))
	f.Add(int64(14), int64(7), uint8(2), uint8(7), uint8(1))
	f.Add(int64(99), int64(42), uint8(5), uint8(9), uint8(0))
	f.Add(int64(1205), int64(1924), uint8(4), uint8(5), uint8(1))
	f.Add(int64(6), int64(3), uint8(6), uint8(11), uint8(2))
	f.Add(int64(1924), int64(1205), uint8(3), uint8(9), uint8(2))

	f.Fuzz(func(t *testing.T, instSeed, runSeed int64, spread, demands, heights uint8) {
		wcfg := workload.TreeConfig{
			Vertices:    12,
			Trees:       2,
			Demands:     1 + int(demands)%12,
			ProfitRatio: 1 + float64(spread%8),
		}
		mode := engine.Unit
		switch heights % 3 {
		case 1:
			mode = engine.Narrow
			wcfg.Heights = workload.NarrowHeights
			wcfg.HMin = 0.2
		case 2:
			wcfg.Heights = workload.MixedHeights
			wcfg.HMin = 0.2
		}
		in, err := workload.RandomTreeInstance(wcfg, rand.New(rand.NewSource(instSeed)))
		if err != nil {
			t.Skip()
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			t.Skip()
		}
		cfg := engine.Config{Mode: mode, Epsilon: 0.3, Seed: runSeed}
		if heights%3 == 2 {
			sameHeightClasses(t, items, cfg)
			return
		}
		eres, err := engine.Prepare(items).Solve(cfg, 1)
		if err != nil {
			t.Skip() // instances the engine rejects are out of scope
		}
		dres, err := dist.Run(items, cfg)
		if err != nil {
			t.Fatalf("engine succeeded but dist failed: %v", err)
		}
		sameAsEngine(t, "fuzz", eres, dres)
		checkAccounting(t, dres.Stats, dres.ScheduleRounds)
	})
}

// sameHeightClasses runs the §6 rule over the simulator, one dist.Run per
// height class, each checked against the engine's run of that class, and
// requires the combined selection and profit bits of engine.SolveArbitrary.
func sameHeightClasses(t *testing.T, items []engine.Item, cfg engine.Config) {
	t.Helper()
	ares, err := engine.SolveArbitrary(items, cfg, nil)
	if err != nil {
		t.Skip() // instances the engine rejects are out of scope
	}
	selected, profit, err := engine.SolveHeightClasses(items, cfg, func(class []engine.Item, ccfg engine.Config) ([]int, error) {
		eres, err := engine.Prepare(class).Solve(ccfg, 1)
		if err != nil {
			return nil, err
		}
		dres, err := dist.Run(class, ccfg)
		if err != nil {
			return nil, err
		}
		sameAsEngine(t, "fuzz "+ccfg.Mode.String()+" class", eres, dres)
		checkAccounting(t, dres.Stats, dres.ScheduleRounds)
		return dres.Selected, nil
	})
	if err != nil {
		t.Fatalf("engine succeeded but the simulated height classes failed: %v", err)
	}
	if !reflect.DeepEqual(selected, ares.Selected) || math.Float64bits(profit) != math.Float64bits(ares.Profit) {
		t.Errorf("§6 over dist (%v, profit %v) differs from SolveArbitrary (%v, profit %v)",
			selected, profit, ares.Selected, ares.Profit)
	}
}

// checkAccounting checks the simulator's accounting invariants on one
// run's Stats.
func checkAccounting(t *testing.T, st simnet.Stats, scheduleRounds int) {
	t.Helper()
	if st.Rounds != scheduleRounds {
		t.Errorf("Rounds = %d, want ScheduleRounds = %d", st.Rounds, scheduleRounds)
	}
	var busy, msgs int
	for i := range st.BusyNodeHist {
		busy += st.BusyNodeHist[i]
		msgs += st.MsgSizeHist[i]
	}
	if busy != st.BusyRounds || msgs != st.Messages {
		t.Errorf("ΣBusyNodeHist = %d, ΣMsgSizeHist = %d; want BusyRounds = %d, Messages = %d",
			busy, msgs, st.BusyRounds, st.Messages)
	}
	if st.BusyRounds > st.Rounds-st.SkippedRounds {
		t.Errorf("BusyRounds = %d exceeds the %d executed rounds", st.BusyRounds, st.Rounds-st.SkippedRounds)
	}
}
