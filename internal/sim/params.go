package sim

// Params optionally overrides an experiment's built-in sweep grid, turning
// the registry from a fixed suite into a parameterized query surface (the
// job service in internal/jobs submits these). The zero value means "run
// the experiment exactly as EXPERIMENTS.md records it"; every experiment
// ignores the fields it has no use for, and ParamCaps documents which
// experiments honor which overrides so callers can validate up front.
//
// Overrides keep every determinism contract: a given (Seed, Scale, Params)
// yields bit-identical tables at any worker count, with any recorder
// attached, batched or scalar — the overrides only select *which* cells a
// sweep evaluates, never how a cell computes.
type Params struct {
	// Ns replaces the experiment's n-grid (universe sizes), where supported.
	Ns []int `json:"ns,omitempty"`
	// Ks replaces the experiment's k-grid (player counts), where supported.
	Ks []int `json:"ks,omitempty"`
	// Faults replaces the networked experiment's fault-mix sweep with
	// ["none", Faults] — the calibration row plus the requested mix — in
	// internal/faults.Parse syntax, where supported.
	Faults string `json:"faults,omitempty"`
}

// ParamCaps says which Params fields one experiment honors.
type ParamCaps struct {
	Ns, Ks, Faults bool
}

// Caps returns the override capabilities of the experiment with the given
// registry ID. Experiments not listed honor nothing (zero caps): their
// grids encode paper-specific regimes (e.g. E14's n >> k² vs n ≈ k² split)
// that arbitrary overrides would silently invalidate.
func Caps(id string) ParamCaps {
	switch id {
	case "E1":
		return ParamCaps{Ns: true}
	case "E2":
		return ParamCaps{Ks: true}
	case "E20":
		return ParamCaps{Ns: true, Ks: true, Faults: true}
	case "E21":
		return ParamCaps{Ns: true, Ks: true}
	default:
		return ParamCaps{}
	}
}

// nsGrid resolves an n-grid against the configured override.
func (c Config) nsGrid(def []int) []int {
	if len(c.Params.Ns) > 0 {
		return c.Params.Ns
	}
	return def
}

// ksGrid resolves a k-grid against the configured override.
func (c Config) ksGrid(def []int) []int {
	if len(c.Params.Ks) > 0 {
		return c.Params.Ks
	}
	return def
}

// faultMixes resolves a fault-mix sweep against the configured override.
// An override always keeps the fault-free calibration row first, so the
// rendered table still reports the framing overhead baseline.
func (c Config) faultMixes(def []string) []string {
	if c.Params.Faults != "" {
		return []string{"none", c.Params.Faults}
	}
	return def
}

// firstOr returns the first element of an override grid, or def when the
// grid is empty — for experiments that take a single n or k, not a sweep.
func firstOr(grid []int, def int) int {
	if len(grid) > 0 {
		return grid[0]
	}
	return def
}
