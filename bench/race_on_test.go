//go:build race

package main

// raceEnabled lifts the smoke run's time limit: the race detector slows
// the program several times over.
const raceEnabled = true
