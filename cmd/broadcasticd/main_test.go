package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"broadcastic/internal/sim"
	"broadcastic/internal/telemetry/causal"
	"broadcastic/internal/telemetry/tracelog"
)

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "medium"},
		{"-only", "E99"},
		{"-bogusflag"},
		{"-log", "shouty"},
	} {
		var out bytes.Buffer
		if err := run(append(args, "-serve", "127.0.0.1:0"), &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestRunVersion(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) == "" {
		t.Error("-version printed nothing")
	}
}

func TestRunOnce(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-serve", "127.0.0.1:0", "-once", "-only", "E10", "-seed", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E10") {
		t.Errorf("suite output carries no E10 table:\n%s", out.String())
	}

	// A pure job service (-suite=false) starts and drains cleanly too.
	out.Reset()
	if err := run([]string{"-serve", "127.0.0.1:0", "-once", "-suite=false"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "" {
		t.Errorf("-suite=false printed tables: %q", got)
	}
}

// TestRunOnceMatchesBareSuite pins the daemon as the suite's observed
// runner: with the whole plane up (collector, broker, flight recorder)
// and the job API off, its stdout must be byte-identical to the same
// experiments rendered bare through sim, as cmd/experiments prints them.
func TestRunOnceMatchesBareSuite(t *testing.T) {
	var got bytes.Buffer
	args := []string{"-serve", "127.0.0.1:0", "-once", "-jobs=false", "-scale", "quick", "-only", "E5,E12,E20", "-seed", "3"}
	if err := run(args, &got); err != nil {
		t.Fatal(err)
	}
	selected, err := sim.Select("E5,E12,E20")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, exp := range selected {
		tbl, err := exp.Run(sim.Config{Seed: 3, Scale: sim.Quick})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Render(&want); err != nil {
			t.Fatal(err)
		}
	}
	if want.Len() == 0 {
		t.Fatal("bare suite rendered nothing")
	}
	if got.String() != want.String() {
		t.Fatalf("daemon stdout differs from the bare suite:\n--- bare ---\n%s--- daemon ---\n%s", want.String(), got.String())
	}
}

// TestRunTraceWithoutFlightRecorder: -runtrace still writes a causal
// trace per experiment when -flight 0 turns the flight recorder off.
func TestRunTraceWithoutFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-serve", "127.0.0.1:0", "-once", "-only", "E10", "-flight", "0", "-runtrace", dir}, &out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, tracelog.FileName("E10-seed1")))
	if err != nil {
		t.Fatal(err)
	}
	var tr tracelog.Trace
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	cells := 0
	for _, ev := range tr.TraceEvents {
		if ev.Phase == "X" && ev.Name == causal.SimCell {
			cells++
		}
	}
	if cells == 0 {
		t.Error("trace holds no sim.cell spans")
	}
}

// TestRunSIGTERMGracefulShutdown pins the daemon's signal path: without
// -once it serves until SIGTERM, then shuts the plane and job fleet down
// and returns nil.
func TestRunSIGTERMGracefulShutdown(t *testing.T) {
	// Shield the test process: with this channel registered, SIGTERM is
	// delivered to channels instead of killing us, even in the window
	// before run() installs its own NotifyContext handler.
	shield := make(chan os.Signal, 16)
	signal.Notify(shield, syscall.SIGTERM)
	defer signal.Stop(shield)

	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run([]string{"-serve", "127.0.0.1:0", "-suite=false"}, &out)
	}()

	// run() has no handle we can query for "signal handler installed", so
	// nudge it with SIGTERM until it exits.
	deadline := time.After(30 * time.Second)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run after SIGTERM: %v", err)
			}
			return
		case <-tick.C:
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("run() ignored SIGTERM")
		}
	}
}
