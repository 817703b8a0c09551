package broadcastic_test

// The one-stopwatch contract: every *_ns histogram observes the duration a
// causal span's End returns, so each span name and its histogram describe
// the same set of durations exactly — same count, sum, min and max — on
// every layer that times anything.

import (
	"strconv"
	"testing"
	"time"

	"broadcastic/internal/ir"
	"broadcastic/internal/jobs"
	"broadcastic/internal/sim"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// spanDurations is the count, sum, min and max of End − Start over records,
// in the histogram's own float arithmetic (nanosecond sums stay exact
// integers far below 2^53).
type spanDurations struct {
	count         int64
	sum, min, max float64
}

func (d *spanDurations) add(rec causal.Record) {
	v := float64(rec.End - rec.Start)
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if d.count == 0 || v > d.max {
		d.max = v
	}
	d.count++
	d.sum += v
}

// spansByName groups a recorder's span records by name.
func spansByName(fr *causal.Recorder) map[string][]causal.Record {
	out := map[string][]causal.Record{}
	for _, rec := range fr.Records(0) {
		if rec.Kind == causal.KindSpan {
			out[rec.Name] = append(out[rec.Name], rec)
		}
	}
	return out
}

// assertSameDurations requires the histogram to hold exactly the
// durations of recs, and recs to be non-empty.
func assertSameDurations(t *testing.T, col *telemetry.Collector, hist string, recs []causal.Record) {
	t.Helper()
	if len(recs) == 0 {
		t.Errorf("no spans recorded for %s; the check is vacuous", hist)
		return
	}
	var d spanDurations
	for _, rec := range recs {
		d.add(rec)
	}
	h := col.Hist(hist)
	if h.Count != d.count || h.Sum != d.sum || h.Min != d.min || h.Max != d.max {
		t.Errorf("%s = {count %d, sum %g, min %g, max %g}; its spans = {count %d, sum %g, min %g, max %g}",
			hist, h.Count, h.Sum, h.Min, h.Max, d.count, d.sum, d.min, d.max)
	}
}

// assertNothingEvicted: the pairing is only checkable if the flight
// recorder kept every record.
func assertNothingEvicted(t *testing.T, fr *causal.Recorder) {
	t.Helper()
	if held, appended, _ := fr.Stats(); int64(held) != appended {
		t.Fatalf("flight recorder evicted %d of %d records", appended-int64(held), appended)
	}
}

// assertHopDurations checks netrun.hop against netrun.ack_ns, and each
// link's hops against that link's ack_ns series, whose counts and sums
// add up to the fleet-wide histogram.
func assertHopDurations(t *testing.T, col *telemetry.Collector, hops []causal.Record) {
	t.Helper()
	assertSameDurations(t, col, telemetry.NetrunAckNs, hops)
	byLink := map[int][]causal.Record{}
	for _, rec := range hops {
		for _, a := range rec.Attrs {
			if a.Key == "link" {
				l, err := strconv.Atoi(a.Value)
				if err != nil {
					t.Fatalf("hop link attr %q: %v", a.Value, err)
				}
				byLink[l] = append(byLink[l], rec)
			}
		}
	}
	var count int64
	var sum float64
	for l, recs := range byLink {
		name := telemetry.Indexed(telemetry.NetrunTopo, l, "ack_ns")
		assertSameDurations(t, col, name, recs)
		count += col.Hist(name).Count
		sum += col.Hist(name).Sum
	}
	if total := col.Hist(telemetry.NetrunAckNs); count != total.Count || sum != total.Sum {
		t.Errorf("per-link ack_ns series sum to {%d, %g}, fleet-wide {%d, %g}", count, sum, total.Count, total.Sum)
	}
}

func TestOneDurationPerSpan(t *testing.T) {
	t.Run("E4-workers4", func(t *testing.T) {
		ir.ResetProgramCache() // so the run compiles, and ir.compile is not vacuous
		fr := causal.NewRecorder(1 << 18)
		col := telemetry.NewCollector()
		cfg := sim.Config{Seed: 7, Scale: sim.Quick, Workers: 4, Recorder: col,
			Causal: fr.StartTrace(causal.ExperimentRoot, causal.String("experiment", "E4"))}
		if _, err := sim.E4AndInfoCost(cfg); err != nil {
			t.Fatal(err)
		}
		assertNothingEvicted(t, fr)
		spans := spansByName(fr)
		assertSameDurations(t, col, telemetry.SimCellNs, spans[causal.SimCell])
		assertSameDurations(t, col, telemetry.CoreCICShardNs, spans[causal.CoreShard])
		assertSameDurations(t, col, telemetry.IRCompileNs, spans[causal.IRCompile])
	})

	t.Run("E20", func(t *testing.T) {
		fr := causal.NewRecorder(1 << 18)
		col := telemetry.NewCollector()
		cfg := sim.Config{Seed: 7, Scale: sim.Quick, Recorder: col,
			Causal: fr.StartTrace(causal.ExperimentRoot, causal.String("experiment", "E20"))}
		if _, err := sim.E20NetworkedOverhead(cfg); err != nil {
			t.Fatal(err)
		}
		assertNothingEvicted(t, fr)
		spans := spansByName(fr)
		assertSameDurations(t, col, telemetry.SimCellNs, spans[causal.SimCell])
		assertSameDurations(t, col, telemetry.NetrunTurnNs, spans[causal.NetrunTurn])
		assertHopDurations(t, col, spans[causal.NetrunHop])
	})

	t.Run("job", func(t *testing.T) {
		fr := causal.NewRecorder(1 << 18)
		col := telemetry.NewCollector()
		svc := jobs.New(jobs.Options{Workers: 1, Recorder: col, Flight: fr})
		defer svc.Close()
		spec := jobs.JobSpec{Experiment: "E20", Seed: 2, Scale: "quick",
			Ns: []int{16}, Ks: []int{4}, Faults: "drop=0.2"}
		j, err := svc.SubmitTraced("acme", spec, fr.StartTrace(causal.JobAdmission, causal.String("tenant", "acme")))
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if j, _ = svc.Get(j.ID); j.State == jobs.Done {
				break
			}
			if j.State == jobs.Failed || time.Now().After(deadline) {
				t.Fatalf("job = %+v", j)
			}
		}
		assertNothingEvicted(t, fr)
		spans := spansByName(fr)
		assertSameDurations(t, col, telemetry.JobsQueueWaitNs, spans[causal.JobQueueWait])
		assertSameDurations(t, col, telemetry.JobsJobNs, spans[causal.JobExecute])
		assertSameDurations(t, col, telemetry.SimCellNs, spans[causal.SimCell])
		assertSameDurations(t, col, telemetry.NetrunTurnNs, spans[causal.NetrunTurn])
		assertHopDurations(t, col, spans[causal.NetrunHop])
	})
}
