package deadcode

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestRuleOnFixture runs the check on testdata/fixture, a module with one
// declaration of each kind the rule tells apart, and pins the verdict on
// every one, so the rule cannot be loosened or tightened unnoticed.
func TestRuleOnFixture(t *testing.T) {
	root := filepath.Join("testdata", "fixture")
	l, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	g, err := l.graph()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, d := range g.decls {
		keys = append(keys, d.key)
	}
	sort.Strings(keys)
	wantKeys := []string{
		"internal/a.Dead", "internal/a.OnlyOwnTest", "internal/a.OtherTest",
		"internal/a.Seam", "internal/a.T", "internal/a.T.Scan", "internal/a.T.String",
		"internal/a.Used", "internal/a.fromInit", "internal/a.fromVar",
		"internal/a.helper", "internal/a.seamHelper",
	}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Fatalf("declarations:\n got %v\nwant %v", keys, wantKeys)
	}

	unreached, stale, err := check(root, map[string]string{
		"internal/a.Seam": "a test seam: suppressed, and seamHelper reached through it",
		"internal/a.Used": "reached from cmd/app: stale",
		"internal/a.Gone": "names nothing: stale",
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range unreached {
		got = append(got, d.key)
	}
	want := []string{
		"internal/a.Dead",        // called by nothing
		"internal/a.OnlyOwnTest", // only its own package's test calls it
		"internal/a.T.Scan",      // fmt.Scanner's name, not its signature
		"internal/a.helper",      // called only from Dead
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unreached:\n got %v\nwant %v", got, want)
	}
	if want := []string{"internal/a.Gone", "internal/a.Used"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale allowlist entries:\n got %v\nwant %v", stale, want)
	}
}

func TestParseAllowlist(t *testing.T) {
	allow, err := parseAllowlist("# comment\n\ninternal/x.F  the reason\n")
	if err != nil || len(allow) != 1 || allow["internal/x.F"] != "the reason" {
		t.Fatalf("parse = %v, %v", allow, err)
	}
	for _, bad := range []string{"internal/x.F\n", "internal/x.F r\ninternal/x.F r\n"} {
		if _, err := parseAllowlist(bad); err == nil {
			t.Errorf("parseAllowlist(%q) accepted an entry without a reason or a duplicate", bad)
		}
	}
}
