package jobs

import (
	"bytes"
	"fmt"

	"broadcastic/internal/sim"
)

// RunExperiment is the default Runner: it resolves the spec's experiment
// in the sim registry, runs it with the spec's parameters, and returns
// the rendered table — the same bytes cmd/experiments would print for the
// same configuration, which is what makes cached and recomputed results
// interchangeable.
func RunExperiment(spec JobSpec, rc RunContext) ([]byte, error) {
	scale, err := spec.scale()
	if err != nil {
		return nil, err
	}
	exp, ok := sim.Lookup(spec.Experiment)
	if !ok {
		return nil, fmt.Errorf("jobs: unknown experiment %q", spec.Experiment)
	}
	cfg := sim.Config{
		Seed:     spec.Seed,
		Scale:    scale,
		Workers:  spec.Workers,
		Recorder: rc.Recorder,
		Progress: rc.Progress,
		Causal:   rc.Causal,
		Params:   sim.Params{Ns: spec.Ns, Ks: spec.Ks, Faults: spec.Faults},
	}
	tbl, err := exp.Run(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
