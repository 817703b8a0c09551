package main

import "testing"

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
