//go:build race

package engine_test

// raceEnabled reports a -race build, where tests skip their largest
// documents.
const raceEnabled = true
