package engine

// MergedSchedule exposes Result.mergedSchedule to the external test
// package: the Steps, MISIters and Trace of any solve, serial or sharded.
func MergedSchedule(r *Result) (steps, misIters int, trace *Trace) { return r.mergedSchedule() }
