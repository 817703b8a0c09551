// Command disj runs the set-disjointness protocols on generated instances
// and reports bit-exact communication costs.
//
// Usage:
//
//	disj [-n 4096] [-k 8] [-kind mun|disjoint|intersecting] [-density 0.5]
//	     [-protocol optimal|naive|both] [-trials 3] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"broadcastic/internal/buildinfo"
	"broadcastic/internal/disj"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "disj:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("disj", flag.ContinueOnError)
	n := fs.Int("n", 4096, "universe size")
	k := fs.Int("k", 8, "number of players")
	kind := fs.String("kind", "mun", "instance kind: mun (hard distribution), disjoint, intersecting")
	density := fs.Float64("density", 0.5, "element density for disjoint/intersecting kinds")
	protocol := fs.String("protocol", "both", "protocol: optimal, naive or both")
	trials := fs.Int("trials", 3, "number of instances")
	seed := fs.Uint64("seed", 1, "random seed")
	version := buildinfo.Flag(fs)
	var profiles telemetry.Profiles
	profiles.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.Resolve())
		return nil
	}
	switch *protocol {
	case "optimal", "naive", "both":
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}
	stopProfiles, err := profiles.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "disj: profiles:", err)
		}
	}()
	src := rng.New(*seed)
	fmt.Printf("DISJ_{n=%d, k=%d}, kind=%s, trials=%d\n", *n, *k, *kind, *trials)
	fmt.Printf("cost models: optimal n·log2k+k = %.0f, naive n·log2n+k = %.0f\n\n",
		disj.OptimalCostModel(*n, *k), disj.NaiveCostModel(*n, *k))
	for tr := 0; tr < *trials; tr++ {
		var (
			inst *disj.Instance
			err  error
		)
		switch *kind {
		case "mun":
			inst, err = disj.GenerateFromMuN(src, *n, *k)
		case "disjoint":
			inst, err = disj.GenerateDisjoint(src, *n, *k, *density)
		case "intersecting":
			inst, err = disj.GenerateIntersecting(src, *n, *k, 1, *density)
		default:
			return fmt.Errorf("unknown kind %q", *kind)
		}
		if err != nil {
			return err
		}
		truth, err := inst.Disjoint()
		if err != nil {
			return err
		}
		fmt.Printf("trial %d (truth: disjoint=%v)\n", tr, truth)
		if *protocol == "optimal" || *protocol == "both" {
			out, err := disj.SolveOptimal(inst)
			if err != nil {
				return err
			}
			if out.Disjoint != truth {
				return fmt.Errorf("optimal protocol answered incorrectly")
			}
			fmt.Printf("  optimal: %8d bits  %5d messages  (%.3f × model)\n",
				out.Bits, out.Messages, float64(out.Bits)/disj.OptimalCostModel(*n, *k))
		}
		if *protocol == "naive" || *protocol == "both" {
			out, err := disj.SolveNaive(inst)
			if err != nil {
				return err
			}
			if out.Disjoint != truth {
				return fmt.Errorf("naive protocol answered incorrectly")
			}
			fmt.Printf("  naive:   %8d bits  %5d messages  (%.3f × model)\n",
				out.Bits, out.Messages, float64(out.Bits)/disj.NaiveCostModel(*n, *k))
		}
	}
	return nil
}
