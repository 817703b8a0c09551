package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"broadcastic/internal/telemetry/causal"
	"broadcastic/internal/telemetry/tracelog"
)

func TestRunSmoke(t *testing.T) {
	if err := run([]string{"-scale", "quick", "-only", "E5,E12"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "bogus"}, os.Stdout); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

// TestRunParallelFlagDeterminism runs the same experiment selection at
// -parallel 1 and -parallel 4 and requires byte-identical output.
func TestRunParallelFlagDeterminism(t *testing.T) {
	capture := func(parallel string) string {
		t.Helper()
		f, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := run([]string{"-scale", "quick", "-only", "E1,E10", "-parallel", parallel}, f); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	serial := capture("1")
	parallel := capture("4")
	if len(serial) == 0 {
		t.Fatal("empty output")
	}
	if serial != parallel {
		t.Fatalf("-parallel 4 output differs from -parallel 1:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

// TestRunTrace pins -runtrace end to end: E20 writes one Perfetto file
// that parses, with the experiment's trace as a process, netrun.turn
// spans, netrun.hop spans on every link's row and the injected faults as
// netrun.fault instants.
func TestRunTrace(t *testing.T) {
	dir := t.TempDir()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := run([]string{"-scale", "quick", "-only", "E20", "-runtrace", dir}, out); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("trace files = %v, %v; want exactly one", files, err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var tr tracelog.Trace
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	rows := map[[2]int]string{}
	var procs, turns, faults int
	hopRows := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Phase == "M" && ev.Name == "process_name":
			if name, _ := ev.Args["name"].(string); strings.HasPrefix(name, "trace ") {
				procs++
			}
		case ev.Phase == "M" && ev.Name == "thread_name":
			rows[[2]int{ev.Pid, ev.Tid}], _ = ev.Args["name"].(string)
		}
	}
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Phase == "X" && ev.Name == causal.NetrunTurn:
			turns++
		case ev.Phase == "X" && ev.Name == causal.NetrunHop:
			row, _, _ := strings.Cut(rows[[2]int{ev.Pid, ev.Tid}], " (lane")
			hopRows[row] = true
		case ev.Phase == "i" && ev.Name == causal.NetrunFault:
			faults++
		}
	}
	if procs != 1 || turns == 0 || faults == 0 {
		t.Errorf("trace has %d trace processes, %d netrun.turn spans, %d netrun.fault instants", procs, turns, faults)
	}
	// E20 at quick scale runs k=6 players on the star, one link each.
	for l := 0; l < 6; l++ {
		if !hopRows[fmt.Sprintf("link %d", l)] {
			t.Errorf("no netrun.hop spans on row \"link %d\"; hop rows %v", l, hopRows)
		}
	}
}
