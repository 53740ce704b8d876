//go:build race

package server

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of the values put into it, so pooled request
// scanners are rebuilt and allocation counts vary from run to run.
const raceEnabled = true
