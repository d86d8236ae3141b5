//go:build !race

package sentinel_test

const raceEnabled = false
