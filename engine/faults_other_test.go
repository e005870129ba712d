//go:build !linux

package engine

// minorFaults reports no count off Linux.
func minorFaults() (int64, bool) { return 0, false }
