//go:build race

package decomp

func init() { raceEnabled = true }
