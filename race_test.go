//go:build race

package treesched_test

func init() { raceEnabled = true }
