//go:build !race

package rpcnet

// raceEnabled reports whether the race detector is instrumenting this
// build.
const raceEnabled = false
