package memsim

// RunShape reports how many progression runs a warp access's lanes form,
// 0 when they take more than maxRuns, and whether BankConflictDegree
// charges the access from its runs.
func RunShape(addrs []uint64, banks, bankWidth int) (runs int, deg bool) {
	var rs [maxRuns]run
	if k, ok := progressions(&rs, addrs); ok {
		runs = k
	}
	_, deg = runConflictDegree(addrs, banks, bankWidth)
	return runs, deg
}
