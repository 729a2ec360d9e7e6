//go:build oracle

package vm

// Built with -tags oracle, every launch that names no backend runs on the
// interpreter, so the whole suite can be run against the oracle without a
// product setting to select it.
func init() { oracle = true }
