package faults

import (
	"testing"
	"time"

	"broadcastic/internal/rng"
)

func TestPlanValidate(t *testing.T) {
	good := []Plan{
		{},
		{Drop: 0.5, Duplicate: 1, Corrupt: 0.01},
		{DelayProb: 0.2, MaxDelay: time.Millisecond},
		{CrashTurns: map[int]int{0: 0, 3: 7}},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Fatalf("good plan %d rejected: %v", i, err)
		}
	}
	bad := []Plan{
		{Drop: -0.1},
		{Duplicate: 1.5},
		{Corrupt: 2},
		{DelayProb: 0.5},                 // no MaxDelay
		{MaxDelay: -time.Millisecond},    // negative delay
		{CrashTurns: map[int]int{-1: 0}}, // negative player
		{CrashTurns: map[int]int{0: -2}}, // negative turn
		{DelayProb: -0.2, MaxDelay: 1e6}, // negative probability
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad plan %d accepted: %+v", i, p)
		}
	}
}

func TestPlanEnabledAndCrashTurn(t *testing.T) {
	if (Plan{}).Enabled() {
		t.Fatal("zero plan enabled")
	}
	if (Plan{CrashTurns: map[int]int{1: 0}}).Enabled() {
		t.Fatal("crash-only plan reports link faults enabled")
	}
	if !(Plan{Drop: 0.1}).Enabled() {
		t.Fatal("drop plan not enabled")
	}
	p := Plan{CrashTurns: map[int]int{2: 5}}
	if p.CrashTurn(2) != 5 || p.CrashTurn(0) != -1 {
		t.Fatalf("CrashTurn = %d,%d", p.CrashTurn(2), p.CrashTurn(0))
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"none",
		"drop=0.1",
		"drop=0.1,dup=0.05,corrupt=0.01",
		"delay=0.2:3ms",
		"drop=0.2,crash=1@4",
		"crash=0@0,crash=2@7",
		"delay=0:5ms",
	}
	for _, s := range cases {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		// String must re-parse to the same plan.
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = Parse(%q): %v", s, p.String(), err)
		}
		if p.Drop != p2.Drop || p.Duplicate != p2.Duplicate || p.Corrupt != p2.Corrupt ||
			p.DelayProb != p2.DelayProb || p.MaxDelay != p2.MaxDelay || len(p.CrashTurns) != len(p2.CrashTurns) {
			t.Fatalf("round trip of %q: %+v != %+v", s, p, p2)
		}
	}
	if p, err := Parse(""); err != nil || p.Enabled() {
		t.Fatalf("empty parse = %+v, %v", p, err)
	}
	p, err := Parse("drop=0.25,dup=0.1,corrupt=0.05,delay=0.5:2ms,crash=3@1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0.25 || p.Duplicate != 0.1 || p.Corrupt != 0.05 ||
		p.DelayProb != 0.5 || p.MaxDelay != 2*time.Millisecond || p.CrashTurns[3] != 1 {
		t.Fatalf("parsed plan %+v", p)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"drop", "drop=x", "delay=0.5", "delay=0.5:zz", "crash=1", "crash=a@2",
		"crash=1@b", "bogus=1", "drop=1.5", "delay=0.5:-1ms",
		"drop=NaN", "dup=nan", "corrupt=-Inf", "delay=NaN:1ms", "delay=0:-1ms",
	} {
		if _, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q) succeeded", s)
		}
	}
}

// The decision stream must be a pure function of the seed: two injectors
// over identical streams produce identical decisions and counts.
func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Drop: 0.3, Duplicate: 0.2, Corrupt: 0.25, DelayProb: 0.15, MaxDelay: time.Millisecond}
	a := plan.NewInjector(rng.New(99))
	b := plan.NewInjector(rng.New(99))
	for i := 0; i < 500; i++ {
		da, db := a.Decide(128), b.Decide(128)
		if da != db {
			t.Fatalf("decision %d differs: %+v vs %+v", i, da, db)
		}
		if da.CorruptBit >= 128 {
			t.Fatalf("corrupt bit %d outside frame", da.CorruptBit)
		}
		if da.Delay < 0 || da.Delay > time.Millisecond {
			t.Fatalf("delay %v outside (0, max]", da.Delay)
		}
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("counts diverge: %v vs %v", a.Counts(), b.Counts())
	}
	if a.Counts().Total() == 0 {
		t.Fatal("no faults injected at these rates in 500 frames")
	}
}

func TestInjectorZeroPlanInjectsNothing(t *testing.T) {
	in := Plan{}.NewInjector(rng.New(1))
	for i := 0; i < 100; i++ {
		d := in.Decide(64)
		if d.Drop || d.Duplicate || d.CorruptBit >= 0 || d.Delay != 0 {
			t.Fatalf("zero plan produced fault %+v", d)
		}
	}
	if in.Counts().Total() != 0 {
		t.Fatalf("zero plan counted faults: %v", in.Counts())
	}
	// A nil source must also be safe (faults disabled at the call site).
	nilIn := Plan{Drop: 1}.NewInjector(nil)
	if d := nilIn.Decide(64); d.Drop {
		t.Fatal("nil-source injector dropped a frame")
	}
}

func TestCountsAddString(t *testing.T) {
	var c Counts
	c.Add(Counts{Drops: 1, Duplicates: 2, Corruptions: 3, Delays: 4})
	c.Add(Counts{Drops: 1})
	if c.Total() != 11 {
		t.Fatalf("total = %d", c.Total())
	}
	if c.String() != "2/2/3/4" {
		t.Fatalf("string = %s", c.String())
	}
	if (Kind(0)).String() != "drop" || Crash.String() != "crash" {
		t.Fatalf("kind names: %s %s", Kind(0), Crash)
	}
}
