package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mpi4spark/internal/vtime"
)

func sampleTable() *Table {
	t := &Table{
		Title:   "Sample",
		Columns: []string{"Name", "Time", "Ratio"},
		Notes:   []string{"a note"},
	}
	t.AddRow("alpha", vtime.Duration(1500*time.Microsecond), 2.5)
	t.AddRow("beta", 90*time.Second, 0.125)
	t.AddRow("gamma", 42, "raw")
	return t
}

func TestAddRowFormatting(t *testing.T) {
	tab := sampleTable()
	if tab.Rows[0][1] != "1.50ms" {
		t.Fatalf("stamp cell = %q", tab.Rows[0][1])
	}
	if tab.Rows[0][2] != "2.50" {
		t.Fatalf("float cell = %q", tab.Rows[0][2])
	}
	if tab.Rows[1][1] != "90.00s" {
		t.Fatalf("duration cell = %q", tab.Rows[1][1])
	}
	if tab.Rows[2][0] != "gamma" || tab.Rows[2][1] != "42" {
		t.Fatalf("generic cells = %v", tab.Rows[2])
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Nanosecond:   "500ns",
		1500 * time.Nanosecond:  "1.50us",
		2500 * time.Microsecond: "2.50ms",
		3 * time.Second:         "3.00s",
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	sampleTable().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"== Sample ==", "alpha", "note: a note", "Ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Columns align: every data line has the same prefix width as header.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines: %d", len(lines))
	}
}

func TestWriteMarkdown(t *testing.T) {
	var buf bytes.Buffer
	sampleTable().WriteMarkdown(&buf)
	out := buf.String()
	for _, want := range []string{"### Sample", "| Name | Time | Ratio |", "| --- | --- | --- |", "*a note*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(100, 25); got != 4 {
		t.Fatalf("Speedup = %v", got)
	}
	if got := Speedup(100, 0); got != 0 {
		t.Fatalf("Speedup by zero = %v", got)
	}
	if got := Speedup(0, 25); got != 0 {
		t.Fatalf("Speedup with zero baseline = %v", got)
	}
	if got := Speedup(-5, 25); got != 0 {
		t.Fatalf("Speedup with negative baseline = %v", got)
	}
}

func raggedTable() *Table {
	t := &Table{
		Title:   "Ragged",
		Columns: []string{"A", "B", "C"},
	}
	t.AddRow("short")                        // 1 cell: pad to 3
	t.AddRow("long", 1, 2, "EXTRA")          // 4 cells: truncate to 3
	t.Rows = append(t.Rows, []string{"raw"}) // bypass AddRow: normalized at render
	t.AddRow("exact", "x", "y")              // already 3
	return t
}

func TestRowArityNormalization(t *testing.T) {
	tab := raggedTable()
	for i, r := range tab.Rows[:2] {
		if len(r) != len(tab.Columns) {
			t.Fatalf("AddRow row %d arity = %d, want %d", i, len(r), len(tab.Columns))
		}
	}
	if tab.Rows[1][2] != "2" {
		t.Fatalf("long row kept wrong cells: %v", tab.Rows[1])
	}

	var md bytes.Buffer
	tab.WriteMarkdown(&md)
	for _, line := range strings.Split(strings.TrimSpace(md.String()), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		if got := strings.Count(line, "|"); got != len(tab.Columns)+1 {
			t.Errorf("markdown row has %d pipes, want %d: %q", got, len(tab.Columns)+1, line)
		}
	}
	if strings.Contains(md.String(), "EXTRA") {
		t.Error("markdown rendered a truncated cell")
	}

	var txt bytes.Buffer
	tab.WriteText(&txt)
	if strings.Contains(txt.String(), "EXTRA") {
		t.Error("text rendered a truncated cell")
	}
	// The raw appended 1-cell row must not shift: normalized at render time.
	if !strings.Contains(txt.String(), "raw") {
		t.Errorf("text output missing raw row:\n%s", txt.String())
	}
}

func TestNormalizeNoColumns(t *testing.T) {
	tab := &Table{Title: "Free"}
	tab.AddRow("a", "b")
	if len(tab.Rows[0]) != 2 {
		t.Fatalf("no-column table mangled row: %v", tab.Rows[0])
	}
}
