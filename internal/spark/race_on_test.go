//go:build race

package spark_test

const raceEnabled = true
