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
	if err := run([]string{"-n", "128", "-k", "4", "-trials", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "64", "-k", "3", "-kind", "disjoint", "-transport", "pipe", "-trials", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "64", "-k", "3", "-kind", "intersecting",
		"-faults", "drop=0.05,corrupt=0.02", "-timeout", "50ms", "-trials", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-kind", "bogus"}); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if err := run([]string{"-transport", "bogus"}); err == nil {
		t.Fatal("bogus transport accepted")
	}
	if err := run([]string{"-faults", "drop=2"}); err == nil {
		t.Fatal("invalid fault probability accepted")
	}
}

func TestRunTopologySmoke(t *testing.T) {
	for _, topo := range []string{"star", "ring", "mesh"} {
		if err := run([]string{"-n", "64", "-k", "3", "-topology", topo, "-trials", "1"}); err != nil {
			t.Fatalf("topology %s: %v", topo, err)
		}
	}
	if err := run([]string{"-n", "64", "-k", "3", "-topology", "star", "-model", "coordinator", "-trials", "1"}); err != nil {
		t.Fatalf("coordinator model: %v", err)
	}
	if err := run([]string{"-n", "64", "-k", "3", "-topology", "ring",
		"-faults", "drop=0.05,corrupt=0.02", "-timeout", "50ms", "-trials", "1"}); err != nil {
		t.Fatalf("ring with faults: %v", err)
	}
	if err := run([]string{"-topology", "bogus"}); err == nil {
		t.Fatal("bogus topology accepted")
	}
	if err := run([]string{"-model", "bogus"}); err == nil {
		t.Fatal("bogus model accepted")
	}
	if err := run([]string{"-topology", "board"}); err == nil {
		t.Fatal("removed board topology accepted")
	}
	// The default topology is the star, so the coordinator model needs no
	// -topology flag.
	if err := run([]string{"-n", "64", "-k", "3", "-model", "coordinator", "-trials", "1"}); err != nil {
		t.Fatalf("coordinator model on the default topology: %v", err)
	}
}

// TestRunTrace pins -runtrace end to end: one faulted trial writes one
// Perfetto file that parses, with the trial's trace as a process,
// netrun.turn spans, netrun.hop spans on every link's row and the
// injected drops as netrun.fault instants.
func TestRunTrace(t *testing.T) {
	dir := t.TempDir()
	const k = 4
	if err := run([]string{"-n", "256", "-k", fmt.Sprint(k), "-trials", "1",
		"-faults", "drop=0.1", "-runtrace", dir}); err != nil {
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
	// The default star gives player l link l.
	for l := 0; l < k; l++ {
		if !hopRows[fmt.Sprintf("link %d", l)] {
			t.Errorf("no netrun.hop spans on row \"link %d\"; hop rows %v", l, hopRows)
		}
	}
}
