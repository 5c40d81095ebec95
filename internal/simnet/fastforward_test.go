package simnet

import (
	"testing"
)

// sleeperNode stays idle until its wake round, sends one message to its
// neighbor, then is done. Its NextActiveRound names the wake round, so the
// rounds before it are fast-forwarded.
type sleeperNode struct {
	id, wake, peer int
	sent           bool
	executed       int // rounds actually executed
}

func (s *sleeperNode) Round(round int, inbox []Message) []Message {
	s.executed++
	if round >= s.wake && !s.sent {
		s.sent = true
		if s.peer >= 0 {
			return []Message{{From: s.id, To: s.peer, Payload: intPayload(s.id)}}
		}
	}
	return nil
}

func (s *sleeperNode) Done() bool { return s.sent }

func (s *sleeperNode) NextActiveRound(now int) int {
	if s.sent {
		return -1
	}
	if s.wake > now {
		return s.wake
	}
	return now + 1
}

func TestFastForwardSkipsIdleRounds(t *testing.T) {
	a := &sleeperNode{id: 0, wake: 1000, peer: 1}
	b := &sleeperNode{id: 1, wake: 2000, peer: 0}
	nw, err := New([]Node{a, b}, [][]int{{1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := nw.Run(5000, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Round accounting covers the full schedule...
	if stats.Rounds < 2000 {
		t.Errorf("rounds = %d, want ≥ 2000 (schedule preserved)", stats.Rounds)
	}
	// ...but execution skipped the idle stretches.
	if stats.SkippedRounds < 1900 {
		t.Errorf("skipped = %d, want most of the idle schedule", stats.SkippedRounds)
	}
	if a.executed > 100 || b.executed > 100 {
		t.Errorf("nodes executed %d/%d rounds; fast-forward ineffective", a.executed, b.executed)
	}
	if stats.Messages != 2 {
		t.Errorf("messages = %d, want 2", stats.Messages)
	}
}

// stallerNode never finishes and reports no future activity: with no
// messages in flight this is a deadlock the coordinator must surface.
type stallerNode struct{}

func (s *stallerNode) Round(round int, inbox []Message) []Message { return nil }
func (s *stallerNode) Done() bool                                 { return false }
func (s *stallerNode) NextActiveRound(now int) int                { return -1 }

// badForwarder reports a non-future round, which the coordinator rejects.
type badForwarder struct{ rounds int }

func (b *badForwarder) Round(round int, inbox []Message) []Message { b.rounds++; return nil }
func (b *badForwarder) Done() bool                                 { return false }
func (b *badForwarder) NextActiveRound(now int) int                { return 0 }
