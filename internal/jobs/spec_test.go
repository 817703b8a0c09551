package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"broadcastic/internal/buildinfo"
)

func TestValidate(t *testing.T) {
	good := []JobSpec{
		{Experiment: "E1", Scale: "quick"},
		{Experiment: "E4", Seed: 99, Scale: "full", Workers: 8},
		{Experiment: "E1", Scale: "quick", Ns: []int{512, 2048}},
		{Experiment: "E2", Scale: "quick", Ks: []int{4, 16}},
		{Experiment: "E20", Scale: "quick", Ns: []int{256}, Ks: []int{4}, Faults: "drop=0.1,dup=0.05"},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", s, err)
		}
	}
	bad := []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Experiment: "E99", Scale: "quick"}, "unknown experiment"},
		{JobSpec{Experiment: "e1", Scale: "quick"}, "unknown experiment"},
		{JobSpec{Experiment: "E1", Scale: "medium"}, "unknown scale"},
		{JobSpec{Experiment: "E1", Scale: "quick", Workers: -1}, "workers"},
		{JobSpec{Experiment: "E1", Scale: "quick", Ks: []int{4}}, "does not honor a k-grid"},
		{JobSpec{Experiment: "E2", Scale: "quick", Ns: []int{512}}, "does not honor an n-grid"},
		{JobSpec{Experiment: "E4", Scale: "quick", Faults: "drop=0.1"}, "does not honor a fault-plan"},
		{JobSpec{Experiment: "E1", Scale: "quick", Ns: []int{4}}, "outside [8,"},
		{JobSpec{Experiment: "E1", Scale: "quick", Ns: []int{1 << 21}}, "outside [8,"},
		{JobSpec{Experiment: "E2", Scale: "quick", Ks: []int{1}}, "outside [2,"},
		{JobSpec{Experiment: "E1", Scale: "quick", Ns: make([]int, MaxGridPoints+1)}, "longer than"},
		{JobSpec{Experiment: "E20", Scale: "quick", Faults: "bogus"}, "faults"},
		{JobSpec{Experiment: "E20", Scale: "quick", Faults: "delay=0.1:5ms"}, "wall-clock"},
		{JobSpec{Experiment: "E20", Scale: "quick", Faults: "crash=1@2"}, "crash faults"},
		{JobSpec{Experiment: "E20", Scale: "quick", Faults: "drop=0.9"}, "above service cap"},
		{JobSpec{Experiment: "E20", Scale: "quick", Faults: "drop=NaN"}, "outside [0,1]"},
		{JobSpec{Experiment: "E20", Scale: "quick", Faults: "delay=NaN:1ms"}, "outside [0,1]"},
	}
	for _, tc := range bad {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %q, want substring %q", tc.spec, err, tc.want)
		}
	}
}

func TestCanonicalIgnoresExecutionHints(t *testing.T) {
	a := JobSpec{Experiment: "E4", Seed: 7, Scale: "quick"}
	b := a
	b.Workers = 64
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Errorf("worker hint leaked into canonical form:\n%s\n%s", ca, cb)
	}
}

func TestCanonicalNormalizesFaultSyntax(t *testing.T) {
	a := JobSpec{Experiment: "E20", Seed: 1, Scale: "quick", Faults: "dup=0.05,drop=0.1"}
	b := JobSpec{Experiment: "E20", Seed: 1, Scale: "quick", Faults: "drop=0.1,dup=0.05"}
	ka, err := a.Key("sha")
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key("sha")
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("reordered fault syntax changed the key: %s vs %s", ka, kb)
	}
}

func TestKeySeparatesSpecsAndBuilds(t *testing.T) {
	base := JobSpec{Experiment: "E4", Seed: 7, Scale: "quick"}
	kBase, err := base.Key("build-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(kBase) != 64 {
		t.Fatalf("key %q is not hex SHA-256", kBase)
	}
	variants := []JobSpec{
		{Experiment: "E5", Seed: 7, Scale: "quick"},
		{Experiment: "E4", Seed: 8, Scale: "quick"},
		{Experiment: "E4", Seed: 7, Scale: "full"},
	}
	for _, v := range variants {
		kv, err := v.Key("build-a")
		if err != nil {
			t.Fatal(err)
		}
		if kv == kBase {
			t.Errorf("distinct spec %+v collided with base key", v)
		}
	}
	// A binary change must invalidate: same spec, different build SHA.
	kOther, err := base.Key("build-b")
	if err != nil {
		t.Fatal(err)
	}
	if kOther == kBase {
		t.Error("build SHA did not enter the key")
	}
	if _, err := (JobSpec{Experiment: "nope", Scale: "quick"}).Key("x"); err == nil {
		t.Error("invalid spec produced a key")
	}
}

func TestBuildSHANonEmpty(t *testing.T) {
	if BuildSHA() == "" {
		t.Error("BuildSHA is empty even of toolchain identity")
	}
}

// A test binary carries no VCS stamp, so its key must name its
// executable: two edits of the code share a toolchain, not an executable.
func TestBuildSHAKeysUnstampedExecutable(t *testing.T) {
	got := BuildSHA()
	if got == "@"+runtime.Version() {
		t.Fatalf("BuildSHA = %q: the toolchain alone", got)
	}
	path, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(exe)
	if digest := hex.EncodeToString(sum[:]); !strings.Contains(got, digest) {
		t.Fatalf("BuildSHA = %q, want it to contain the executable's SHA-256 %s", got, digest)
	}
}

// Unstamped and dirty builds never share a key across executables, and a
// clean stamped build keeps its revision@toolchain key.
func TestBuildKeySeparatesExecutables(t *testing.T) {
	const rev, gov = "0d01442", "go1.22.0"
	exe := func(id string) func() string { return func() string { return id } }
	clean := buildinfo.Info{Revision: rev, GoVersion: gov}
	for _, id := range []string{"aa", "bb"} {
		if got, want := buildKey(clean, exe(id)), rev+"@"+gov; got != want {
			t.Errorf("clean stamped key with executable %s is %q, want %q", id, got, want)
		}
	}
	seen := map[string]string{rev + "@" + gov: "clean"}
	for _, info := range []buildinfo.Info{
		{GoVersion: gov},
		{Revision: rev, Modified: true, GoVersion: gov},
	} {
		for _, id := range []string{"aa", "bb"} {
			key := buildKey(info, exe(id))
			what := fmt.Sprintf("%+v with executable %s", info, id)
			if prev, ok := seen[key]; ok {
				t.Errorf("%s shares key %q with %s", what, key, prev)
			}
			seen[key] = what
		}
	}
}
