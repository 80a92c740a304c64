//go:build race

package service

// raceEnabled reports a -race build. Its sync.Pool drops a random share
// of puts, so an allocation pin across a pooled encoder allows for it.
const raceEnabled = true
