// Command infocost measures information costs of AND_k protocols under the
// hard distribution μ of Section 4.1 — exactly (transcript-tree
// enumeration) for small k, by unbiased Monte-Carlo for large k.
//
// Usage:
//
//	infocost [-k 8] [-protocol sequential|broadcast|lazy] [-delta 0.1]
//	         [-method auto|exact|mc] [-samples 20000] [-seed 1] [-parallel N]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"broadcastic/internal/andk"
	"broadcastic/internal/buildinfo"
	"broadcastic/internal/core"
	"broadcastic/internal/dist"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "infocost:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("infocost", flag.ContinueOnError)
	k := fs.Int("k", 8, "number of players")
	protocol := fs.String("protocol", "sequential", "protocol: sequential, broadcast or lazy")
	delta := fs.Float64("delta", 0.1, "give-up probability for the lazy protocol")
	method := fs.String("method", "auto", "computation: auto, exact or mc")
	samples := fs.Int("samples", 20000, "Monte-Carlo samples")
	seed := fs.Uint64("seed", 1, "random seed")
	parallel := fs.Int("parallel", 0, "Monte-Carlo worker goroutines (0 = one per CPU); estimates are identical for every value")
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
	switch *method {
	case "auto", "exact", "mc":
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	stopProfiles, err := profiles.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "infocost: profiles:", err)
		}
	}()

	var spec core.Spec
	switch *protocol {
	case "sequential":
		s, err := andk.NewSequential(*k)
		if err != nil {
			return err
		}
		spec = s
	case "broadcast":
		s, err := andk.NewBroadcastAll(*k)
		if err != nil {
			return err
		}
		spec = s
	case "lazy":
		s, err := andk.NewLazy(*k, *delta, 0)
		if err != nil {
			return err
		}
		spec = s
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}
	mu, err := dist.NewMu(*k)
	if err != nil {
		return err
	}

	useExact := *method == "exact" || (*method == "auto" && *k <= 14 && *protocol != "broadcast") ||
		(*method == "auto" && *protocol == "broadcast" && *k <= 12)
	fmt.Printf("AND_%d, protocol=%s, distribution=mu (Section 4.1)\n", *k, *protocol)
	fmt.Printf("reference scale: log2(k) = %.3f bits\n\n", math.Log2(float64(*k)))
	if useExact {
		report, err := core.ExactCosts(spec, mu, core.TreeLimits{})
		if err != nil {
			return err
		}
		fmt.Printf("method:           exact transcript-tree enumeration (%d transcripts)\n", report.NumTranscripts)
		fmt.Printf("CIC  I(Π;X|Z):    %.4f bits\n", report.CIC)
		fmt.Printf("IC   I(Π;X):      %.4f bits\n", report.ExternalIC)
		fmt.Printf("expected comm.:   %.4f bits\n", report.ExpectedBits)
		fmt.Printf("worst-case comm.: %d bits\n", report.WorstCaseBits)
		fmt.Printf("gap CC/IC:        %.2f (k/log2k = %.2f)\n",
			float64(report.WorstCaseBits)/report.ExternalIC,
			float64(*k)/math.Log2(float64(*k)))
		return nil
	}
	est, err := core.EstimateCICWorkers(spec, mu, rng.New(*seed), *samples, *parallel)
	if err != nil {
		return err
	}
	fmt.Printf("method:           Monte-Carlo (%d samples, exact inner term)\n", est.Samples)
	fmt.Printf("CIC  I(Π;X|Z):    %.4f ± %.4f bits\n", est.Mean, est.StdErr)
	fmt.Printf("mean comm.:       %.4f bits\n", est.MeanBits)
	fmt.Printf("gap k/CIC:        %.2f (k/log2k = %.2f)\n",
		float64(*k)/est.Mean, float64(*k)/math.Log2(float64(*k)))
	return nil
}
