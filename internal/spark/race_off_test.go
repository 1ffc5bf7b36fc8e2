//go:build !race

package spark_test

const raceEnabled = false
