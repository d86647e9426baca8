//go:build race

package rpcnet

// raceEnabled reports that the race detector is instrumenting this
// build; quantitative allocation bounds are unreliable under it (its
// sync.Pool drops recycled buffers at random).
const raceEnabled = true
