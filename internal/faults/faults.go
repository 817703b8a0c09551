// Package faults is the deterministic failure model of the networked
// runtime (internal/netrun): seeded, per-link streams of fault decisions
// injected at the transport layer.
//
// The paper's broadcast model is a perfect shared medium; the single-hop
// wireless networks it abstracts (and the point-to-point message-passing
// systems the related work runs the same protocols on) are not. This
// package describes what can go wrong on a link — message delay, drop,
// duplication, bit corruption — and when a player crashes outright, as a
// pure decision engine: given a Plan and an rng stream, an Injector answers
// "what happens to the next frame" without touching any I/O itself. The
// runtime applies the decisions; the split keeps the package free of
// transport dependencies and makes every fault sequence replayable
// bit-for-bit from a seed (the reproducibility contract every experiment
// in this repository obeys).
//
// Each link direction gets its own child stream (rng.Source.SplitN), so a
// decision drawn on one link can never perturb another — the same idiom
// the deterministic parallel experiment engine uses for sweep cells.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind labels one category of injected fault.
type Kind int

// Fault kinds.
const (
	Drop Kind = iota
	Duplicate
	Corrupt
	Delay
	Crash

	// NumKinds is the number of fault kinds; valid kinds are 0..NumKinds-1.
	NumKinds = int(Crash) + 1
)

// String returns the flag-syntax name of the kind.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Duplicate:
		return "dup"
	case Corrupt:
		return "corrupt"
	case Delay:
		return "delay"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("faults.Kind(%d)", int(k))
	}
}

// Plan describes a fault mix. The zero value injects nothing. Drop,
// Duplicate, Corrupt and DelayProb are independent per-frame probabilities;
// a delayed frame sleeps uniformly in (0, MaxDelay]. CrashTurns maps a
// player index to the 0-based turn on which that player dies silently
// (crashing is unrecoverable; everything else is recoverable by the
// runtime's retransmission layer).
type Plan struct {
	Drop      float64
	Duplicate float64
	Corrupt   float64
	DelayProb float64
	MaxDelay  time.Duration
	// CrashTurns: player -> turn index at which the player stops responding
	// (0 = crashes when first asked to speak).
	CrashTurns map[int]int
}

// Validate checks probability ranges (NaN is outside every range) and
// delay consistency.
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"drop", p.Drop}, {"dup", p.Duplicate}, {"corrupt", p.Corrupt}, {"delay", p.DelayProb},
	} {
		if math.IsNaN(pr.v) || pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.DelayProb > 0 && p.MaxDelay <= 0 {
		return fmt.Errorf("faults: delay probability %v with non-positive max delay %v", p.DelayProb, p.MaxDelay)
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("faults: negative max delay %v", p.MaxDelay)
	}
	for player, turn := range p.CrashTurns {
		if player < 0 {
			return fmt.Errorf("faults: crash for negative player %d", player)
		}
		if turn < 0 {
			return fmt.Errorf("faults: negative crash turn %d for player %d", turn, player)
		}
	}
	return nil
}

// Enabled reports whether the plan injects any link fault (crashes are
// handled by the runtime's player loop, not the link layer).
func (p Plan) Enabled() bool {
	return p.Drop > 0 || p.Duplicate > 0 || p.Corrupt > 0 || p.DelayProb > 0
}

// CrashTurn returns the turn at which the player crashes, or -1 if it
// never does.
func (p Plan) CrashTurn(player int) int {
	if t, ok := p.CrashTurns[player]; ok {
		return t
	}
	return -1
}

// String renders the plan in Parse syntax (a stable, canonical order).
func (p Plan) String() string {
	var parts []string
	add := func(name string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", name, v))
		}
	}
	add("drop", p.Drop)
	add("dup", p.Duplicate)
	add("corrupt", p.Corrupt)
	if p.DelayProb > 0 {
		parts = append(parts, fmt.Sprintf("delay=%v:%v", p.DelayProb, p.MaxDelay))
	}
	players := make([]int, 0, len(p.CrashTurns))
	for pl := range p.CrashTurns {
		players = append(players, pl)
	}
	sort.Ints(players)
	for _, pl := range players {
		parts = append(parts, fmt.Sprintf("crash=%d@%d", pl, p.CrashTurns[pl]))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Parse reads the CLI fault syntax:
//
//	drop=0.1,dup=0.05,corrupt=0.01,delay=0.2:3ms,crash=1@4
//
// Fields are comma-separated; delay takes probability:max-duration; crash
// takes player@turn and may repeat for several players. "none" or the
// empty string yield the zero Plan. A delay of probability 0 is no delay,
// so its duration is dropped: every accepted plan re-parses from String
// to itself.
func Parse(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		name, value, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Plan{}, fmt.Errorf("faults: field %q is not name=value", field)
		}
		switch name {
		case "drop", "dup", "corrupt":
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: %s: %w", name, err)
			}
			switch name {
			case "drop":
				p.Drop = v
			case "dup":
				p.Duplicate = v
			case "corrupt":
				p.Corrupt = v
			}
		case "delay":
			prob, dur, ok := strings.Cut(value, ":")
			if !ok {
				return Plan{}, fmt.Errorf("faults: delay %q is not prob:duration", value)
			}
			v, err := strconv.ParseFloat(prob, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: delay probability: %w", err)
			}
			d, err := time.ParseDuration(dur)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: delay duration: %w", err)
			}
			p.DelayProb = v
			p.MaxDelay = d
		case "crash":
			player, turn, ok := strings.Cut(value, "@")
			if !ok {
				return Plan{}, fmt.Errorf("faults: crash %q is not player@turn", value)
			}
			pl, err := strconv.Atoi(player)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: crash player: %w", err)
			}
			tn, err := strconv.Atoi(turn)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: crash turn: %w", err)
			}
			if p.CrashTurns == nil {
				p.CrashTurns = make(map[int]int)
			}
			p.CrashTurns[pl] = tn
		default:
			return Plan{}, fmt.Errorf("faults: unknown fault %q", name)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if p.DelayProb == 0 {
		p.MaxDelay = 0
	}
	return p, nil
}

// Decision is what happens to one outbound frame. The zero value means
// "deliver untouched".
type Decision struct {
	Drop      bool
	Duplicate bool
	// CorruptBit is the bit index to flip within the frame, or -1 for none.
	CorruptBit int
	Delay      time.Duration
}

// Counts tallies injected faults: the injector's decisions, one per fault
// it drew for a frame. A duplicate or a corruption drawn for a frame that
// is then dropped counts, though nothing of it reaches the wire.
type Counts struct {
	Drops       int
	Duplicates  int
	Corruptions int
	Delays      int
}

// Add accumulates another tally.
func (c *Counts) Add(o Counts) {
	c.Drops += o.Drops
	c.Duplicates += o.Duplicates
	c.Corruptions += o.Corruptions
	c.Delays += o.Delays
}

// Total returns the number of injected faults of every kind.
func (c Counts) Total() int { return c.Drops + c.Duplicates + c.Corruptions + c.Delays }

// String renders the tally compactly (drop/dup/corrupt/delay).
func (c Counts) String() string {
	return fmt.Sprintf("%d/%d/%d/%d", c.Drops, c.Duplicates, c.Corruptions, c.Delays)
}

// rngSource is the slice of the rng.Source API the injector needs; taking
// an interface keeps the dependency one-way (rng imports nothing of ours)
// while letting tests substitute scripted streams.
type rngSource interface {
	Bernoulli(p float64) bool
	Float64() float64
	Intn(n int) int
}

// Injector draws the fault decision stream for one link direction. It is
// not safe for concurrent use: each link direction must own exactly one
// injector, consumed by the single goroutine that sends on that direction
// (this is what makes the decision sequence a pure function of the seed).
type Injector struct {
	plan   Plan
	src    rngSource
	counts Counts
}

// NewInjector builds an injector drawing from src. The plan must have been
// validated.
func (p Plan) NewInjector(src rngSource) *Injector {
	return &Injector{plan: p, src: src}
}

// Decide returns the fate of the next frame of frameBits bits. The draw
// order (drop, duplicate, corrupt, delay) is fixed and documented: it is
// part of the reproducibility contract, since changing it would re-map
// seeds to different fault sequences.
func (in *Injector) Decide(frameBits int) Decision {
	d := Decision{CorruptBit: -1}
	if in.src == nil {
		return d
	}
	if in.plan.Drop > 0 && in.src.Bernoulli(in.plan.Drop) {
		d.Drop = true
		in.counts.Drops++
	}
	if in.plan.Duplicate > 0 && in.src.Bernoulli(in.plan.Duplicate) {
		d.Duplicate = true
		in.counts.Duplicates++
	}
	if in.plan.Corrupt > 0 && frameBits > 0 && in.src.Bernoulli(in.plan.Corrupt) {
		d.CorruptBit = in.src.Intn(frameBits)
		in.counts.Corruptions++
	}
	if in.plan.DelayProb > 0 && in.src.Bernoulli(in.plan.DelayProb) {
		d.Delay = time.Duration(1 + in.src.Float64()*float64(in.plan.MaxDelay-1))
		in.counts.Delays++
	}
	return d
}

// Counts returns the faults injected so far.
func (in *Injector) Counts() Counts { return in.counts }
