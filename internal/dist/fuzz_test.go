package dist_test

import (
	"math/rand"
	"testing"

	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/workload"
)

// FuzzEngineEquivalence cross-checks the message-passing protocol against
// the in-process engine on randomized instances: for any instance the
// generator accepts and the engine solves, the distributed execution must
// return the identical selection, profit, λ, dual bound and dual,
// and its Stats must satisfy the simulator's accounting invariants. The
// seed corpus covers both raise modes, several profit spreads and both ε
// regimes; `go test` replays the corpus, `go test
// -fuzz=FuzzEngineEquivalence` explores further.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), int64(1), uint8(0), uint8(8), false)
	f.Add(int64(2), int64(9), uint8(3), uint8(6), false)
	f.Add(int64(3), int64(5), uint8(1), uint8(10), true)
	f.Add(int64(14), int64(7), uint8(2), uint8(7), true)
	f.Add(int64(99), int64(42), uint8(5), uint8(9), false)
	f.Add(int64(1205), int64(1924), uint8(4), uint8(5), true)

	f.Fuzz(func(t *testing.T, instSeed, runSeed int64, spread, demands uint8, narrow bool) {
		wcfg := workload.TreeConfig{
			Vertices:    12,
			Trees:       2,
			Demands:     1 + int(demands)%12,
			ProfitRatio: 1 + float64(spread%8),
		}
		mode := engine.Unit
		if narrow {
			mode = engine.Narrow
			wcfg.Heights = workload.NarrowHeights
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
		eres, err := engine.Run(items, cfg)
		if err != nil {
			t.Skip() // instances the engine rejects are out of scope
		}
		dres, err := dist.Run(items, cfg)
		if err != nil {
			t.Fatalf("engine succeeded but dist failed: %v", err)
		}
		sameAsEngine(t, "fuzz", eres, dres)

		st := dres.Stats
		if st.Rounds != dres.ScheduleRounds {
			t.Errorf("Rounds = %d, want ScheduleRounds = %d", st.Rounds, dres.ScheduleRounds)
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
	})
}
