package main

// The tables gate: EXPERIMENTS.md records `specbench -quick -seed 1`, and
// every experiment but E12 (wall-clock columns) must reproduce its record
// byte for byte.

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"specstab/internal/experiments"
)

// recordSection matches one experiment section of EXPERIMENTS.md: its
// "## eN — title" heading and the fenced text block under it.
var recordSection = regexp.MustCompile("(?ms)^## (e[0-9]+) — [^\n]*\n.*?^```text\n(.*?)^```")

func TestExperimentsRecord(t *testing.T) {
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	records := map[string]string{}
	for _, m := range recordSection.FindAllStringSubmatch(string(md), -1) {
		records[m[1]] = m[2]
	}
	for _, exp := range experiments.Registry() {
		id := exp.ID
		if id == "e12" {
			continue // wall-clock columns vary from run to run
		}
		want, ok := records[id]
		if !ok {
			t.Errorf("EXPERIMENTS.md has no fenced record for %s", id)
			continue
		}
		var out bytes.Buffer
		if err := run([]string{"-quick", "-seed", "1", "-experiment", id}, &out); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		// Drop the "### eN — title" line the driver prints before the
		// tables; the record holds the tables alone.
		_, got, _ := strings.Cut(out.String(), "\n")
		if strings.Trim(got, "\n") != strings.Trim(want, "\n") {
			t.Errorf("%s: output differs from its EXPERIMENTS.md record\n--- got\n%s\n--- want\n%s", id, got, want)
		}
	}
}
