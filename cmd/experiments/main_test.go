package main

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mpi4spark/internal/harness"
)

// TestReadmeListsEveryExperiment: the README's command block for the
// evaluation runs -exp all and every experiment -h lists, and no other.
func TestReadmeListsEveryExperiment(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## Reproducing the paper's evaluation")
	_, block, ok2 := strings.Cut(section, "```sh\n")
	block, _, ok3 := strings.Cut(block, "```")
	if !ok || !ok2 || !ok3 {
		t.Fatal("README has no command block under its evaluation section")
	}
	var got []string
	for _, m := range regexp.MustCompile(`go run \./cmd/experiments -exp (\S+)`).FindAllStringSubmatch(block, -1) {
		got = append(got, m[1])
	}
	want := []string{"all"}
	for _, e := range harness.Experiments {
		want = append(want, e.Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("README runs -exp %q, want %q", got, want)
	}
}
