// Command netdisj runs the optimal set-disjointness protocol on the
// concurrent networked runtime (internal/netrun) and checks transcript
// conformance against the sequential blackboard reference: same messages,
// same bit count, same answer, under any transport and any recoverable
// fault mix.
//
// Usage:
//
//	netdisj [-n 1024] [-k 6] [-kind mun|disjoint|intersecting]
//	        [-transport chan|pipe|tcp] [-topology star|ring|mesh]
//	        [-model broadcast|coordinator]
//	        [-faults "drop=0.05,corrupt=0.02"]
//	        [-seed 1] [-timeout 250ms] [-retries 12] [-trials 2]
//	        [-serve addr] [-runtrace dir] [-log level] [-version]
//
// -topology picks the link graph the run routes its frames over
// (internal/netrun Topology, default star), and the report breaks wire
// traffic down per link; -model coordinator switches to the
// message-passing protocol of the coordinator model (players ship bitmaps
// to a hub, Θ(n·k) bits).
//
// With -serve, the observability plane (/metrics, /healthz, /runs,
// /debug/pprof) is up for the duration of the run; with -runtrace, each
// trial runs under its own causal trace and writes it as a Chrome
// trace-event file netdisj-seed<N>-trial<T> to the given directory.
// Neither perturbs the run: stdout and the conformance checks are
// identical with or without them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/buildinfo"
	"broadcastic/internal/disj"
	"broadcastic/internal/faults"
	"broadcastic/internal/netrun"
	"broadcastic/internal/rng"
	"broadcastic/internal/serve"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
	"broadcastic/internal/telemetry/tracelog"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "netdisj:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("netdisj", flag.ContinueOnError)
	n := fs.Int("n", 1024, "universe size")
	k := fs.Int("k", 6, "number of players")
	kind := fs.String("kind", "mun", "instance kind: mun (hard distribution), disjoint, intersecting")
	transport := fs.String("transport", "chan", "transport: chan, pipe or tcp")
	topology := fs.String("topology", "star", "topology: star, ring or mesh")
	model := fs.String("model", "broadcast", "delivery model: broadcast (replicas synced) or coordinator (message-passing)")
	faultSpec := fs.String("faults", "", `fault mix, e.g. "drop=0.05,dup=0.05,corrupt=0.02,delay=0.2:1ms" (empty: none)`)
	seed := fs.Uint64("seed", 1, "random seed (instances and fault streams)")
	timeout := fs.Duration("timeout", 250*time.Millisecond, "base per-attempt ARQ timeout")
	retries := fs.Int("retries", 12, "retransmission budget per frame")
	trials := fs.Int("trials", 2, "number of instances")
	serveAddr := fs.String("serve", "", "serve /metrics, /healthz, /runs and /debug/pprof on this address for the duration of the run")
	runtrace := fs.String("runtrace", "", "directory for per-trial Chrome trace-event files")
	var logCfg telemetry.LogConfig
	logCfg.AddFlags(fs)
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
	logger, err := logCfg.Logger(os.Stderr)
	if err != nil {
		return err
	}
	stopProfiles, err := profiles.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "netdisj: profiles:", err)
		}
	}()

	// Construction goes through the same parse helpers the conformance
	// tests use, so flag spellings cannot drift from the tested wiring.
	tr, err := netrun.ParseTransport(*transport)
	if err != nil {
		return err
	}
	topo, err := netrun.ParseTopology(*topology)
	if err != nil {
		return err
	}
	delivery, err := netrun.ParseDelivery(*model)
	if err != nil {
		return err
	}
	plan, err := faults.Parse(*faultSpec)
	if err != nil {
		return err
	}

	// The live plane (optional): one collector for /metrics, a broker for
	// per-trial /runs progress. Both strictly observe.
	var (
		col      *telemetry.Collector
		progress func(done, total int)
	)
	if *serveAddr != "" {
		col = telemetry.NewCollector()
		broker := serve.NewBroker()
		srv, err := serve.Start(*serveAddr, serve.NewMux(col, broker))
		if err != nil {
			return err
		}
		logger.Info("observability plane up", "addr", srv.Addr())
		progress = broker.ProgressFunc(fmt.Sprintf("netdisj-seed%d", *seed), "netdisj", col)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "netdisj: serve:", err)
			}
		}()
	}
	// -runtrace mints one causal trace per trial with a Perfetto sink
	// attached; the recorder supplies IDs and the clock.
	var traces *causal.Recorder
	if *runtrace != "" {
		if err := os.MkdirAll(*runtrace, 0o755); err != nil {
			return err
		}
		traces = causal.NewRecorder(0)
	}

	src := rng.New(*seed)
	fmt.Printf("DISJ_{n=%d, k=%d} on netrun: kind=%s, transport=%s, topology=%s, model=%s, faults=%q, trials=%d\n\n",
		*n, *k, *kind, *transport, *topology, delivery, *faultSpec, *trials)
	for t := 0; t < *trials; t++ {
		var inst *disj.Instance
		switch *kind {
		case "mun":
			inst, err = disj.GenerateFromMuN(src, *n, *k)
		case "disjoint":
			inst, err = disj.GenerateDisjoint(src, *n, *k, 0.5)
		case "intersecting":
			inst, err = disj.GenerateIntersecting(src, *n, *k, 1, 0.5)
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

		// Sequential reference run on the same instance.
		refProto, err := newProtocol(delivery, inst)
		if err != nil {
			return err
		}
		refRes, err := blackboard.Run(refProto.Scheduler(), refProto.Players(), nil, refProto.Limits())
		if err != nil {
			return err
		}
		refOut, err := refProto.Outcome(refRes.Board)
		if err != nil {
			return err
		}

		// Networked run; protocols are single-use, so build a fresh one.
		proto, err := newProtocol(delivery, inst)
		if err != nil {
			return err
		}
		runID := fmt.Sprintf("netdisj-seed%d-trial%d", *seed, t)
		var rec telemetry.Recorder
		if col != nil {
			rec = col
		}
		var (
			sink  *tracelog.Sink
			cause causal.Context
		)
		if traces != nil {
			sink = tracelog.New(runID)
			cause = traces.StartTraceSink(sink, causal.ExperimentRoot,
				causal.String("experiment", "netdisj"), causal.String("runId", runID))
		}
		res, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, netrun.Config{
			Transport:  tr,
			Topology:   topo,
			Delivery:   delivery,
			Faults:     plan,
			Seed:       src.Uint64(),
			Timeout:    *timeout,
			MaxRetries: *retries,
			Limits:     proto.Limits(),
			Recorder:   rec,
			Causal:     cause,
		})
		if sink != nil {
			// Written even for crashed trials: a trace of the failure is
			// exactly what the flag is for.
			path, werr := sink.WriteFile(*runtrace)
			if werr != nil {
				return werr
			}
			logger.Info("trace written", "trial", t, "path", path)
		}
		if progress != nil {
			progress(t+1, *trials)
		}
		if err != nil {
			if errors.Is(err, netrun.ErrPlayerCrashed) && res != nil {
				fmt.Printf("trial %d: crashed players %v after %d messages (%d board bits)\n",
					t, res.Crashed, res.Board.NumMessages(), res.Board.TotalBits())
				continue
			}
			return err
		}
		out, err := proto.Outcome(res.Board)
		if err != nil {
			return err
		}
		if out.Disjoint != truth {
			return fmt.Errorf("trial %d: networked run answered disjoint=%v, truth is %v", t, out.Disjoint, truth)
		}
		if res.Board.TranscriptKey() != refRes.Board.TranscriptKey() {
			return fmt.Errorf("trial %d: networked transcript diverges from sequential reference", t)
		}
		if res.Stats.BoardBits != refOut.Bits {
			return fmt.Errorf("trial %d: board bits %d != sequential %d", t, res.Stats.BoardBits, refOut.Bits)
		}

		c := res.Stats.Faults
		fmt.Printf("trial %d (disjoint=%v): conformant with sequential reference\n", t, truth)
		fmt.Printf("  board: %8d bits  %5d messages\n", res.Stats.BoardBits, res.Board.NumMessages())
		fmt.Printf("  wire:  %8d bits  (%.3f × board)  retries=%d\n",
			res.Stats.WireBits, float64(res.Stats.WireBits)/float64(res.Stats.BoardBits), totalRetries(res.Stats))
		fmt.Printf("  faults injected: drop=%d dup=%d corrupt=%d delay=%d\n", c.Drops, c.Duplicates, c.Corruptions, c.Delays)
		for _, ls := range res.Stats.PerLink {
			fmt.Printf("  link %d-%d: %8d bits  retries=%d\n", ls.Link.A, ls.Link.B, ls.WireBits, ls.Retries)
		}
	}
	return nil
}

// protocol is the shape both DISJ adapters share; which one runs is the
// delivery model's choice.
type protocol interface {
	Scheduler() blackboard.Scheduler
	Players() []blackboard.Player
	Limits() blackboard.Limits
	Outcome(*blackboard.Board) (*disj.Outcome, error)
}

// newProtocol picks the protocol matching the delivery model: the Section 5
// broadcast protocol reads the shared board, the coordinator-model protocol
// ships bitmaps to the hub and never reads it.
func newProtocol(delivery netrun.DeliveryMode, inst *disj.Instance) (protocol, error) {
	if delivery == netrun.DeliverCoordinator {
		return disj.NewCoordinatorProtocol(inst, disj.CoordinatorOptions{})
	}
	return disj.NewOptimalProtocol(inst, disj.Options{})
}

func totalRetries(s netrun.Stats) int64 {
	var total int64
	for _, ls := range s.PerLink {
		total += ls.Retries
	}
	return total
}
