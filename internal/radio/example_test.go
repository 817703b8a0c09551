package radio_test

import (
	"fmt"
	"log"

	"broadcastic/internal/bitvec"
	"broadcastic/internal/disj"
	"broadcastic/internal/radio"
	"broadcastic/internal/rng"
)

// The paper notes the broadcast model "can also be viewed as an abstract
// model of single-hop wireless networks". This example plays that out: k
// radios each observe a set of interference-free channels out of n, and
// the fleet must decide whether some channel is clear for *every* radio —
// i.e. whether the clear sets are non-disjoint. Airtime is the scarce
// resource, so the protocols' bit counts are exactly what a MAC designer
// would budget.
func Example_wireless() {
	const (
		numChannels = 4096
		numRadios   = 16
		seed        = 7
	)
	src := rng.New(seed)

	// Each radio hears local interference on ~30% of channels, plus one
	// region-wide jammer pattern shared by everyone. A channel is usable
	// for the fleet iff it is clear at every radio.
	jammer, err := bitvec.New(numChannels)
	if err != nil {
		log.Fatal(err)
	}
	for c := 0; c < numChannels; c++ {
		if src.Bernoulli(0.4) {
			if err := jammer.Set(c); err != nil {
				log.Fatal(err)
			}
		}
	}

	// "Some channel clear at every radio" ⇔ the clear sets have non-empty
	// intersection. DISJ convention: Sets[i] = channels clear at radio i;
	// answer disjoint=false means a fleet-wide channel exists.
	clearSets := make([]*bitvec.Vector, numRadios)
	for r := range clearSets {
		v, err := bitvec.New(numChannels)
		if err != nil {
			log.Fatal(err)
		}
		for c := 0; c < numChannels; c++ {
			local := src.Bernoulli(0.3)
			if !local && !jammer.Get(c) {
				if err := v.Set(c); err != nil {
					log.Fatal(err)
				}
			}
		}
		clearSets[r] = v
	}
	inst, err := disj.NewInstance(numChannels, clearSets)
	if err != nil {
		log.Fatal(err)
	}

	channel, shared, err := bitvec.IntersectsAll(inst.Sets)
	if err != nil {
		log.Fatal(err)
	}
	out, err := disj.SolveOptimal(inst)
	if err != nil {
		log.Fatal(err)
	}
	if out.Disjoint == shared {
		log.Fatal("protocol disagreed with ground truth")
	}

	fmt.Printf("fleet: %d radios, %d channels\n", numRadios, numChannels)
	if !out.Disjoint {
		fmt.Printf("verdict: fleet-wide clear channel exists (e.g. channel %d)\n", channel)
	} else {
		fmt.Println("verdict: no channel is clear at every radio")
	}
	fmt.Printf("airtime used by the Section 5 protocol: %d bits in %d transmissions\n",
		out.Bits, out.Messages)
	fmt.Printf("airtime budget model n·log2(k)+k: %.0f bits (ratio %.3f)\n",
		disj.OptimalCostModel(numChannels, numRadios),
		float64(out.Bits)/disj.OptimalCostModel(numChannels, numRadios))

	naive, err := disj.SolveNaive(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive coordination would cost %d bits (%.2f× more airtime)\n",
		naive.Bits, float64(naive.Bits)/float64(out.Bits))

	// Put the contention back (the detail the blackboard model abstracts
	// away): map the same execution onto a slotted channel, polled and
	// contended.
	const payload = 32
	_, polled, err := radio.RunPolledDisj(inst, payload)
	if err != nil {
		log.Fatal(err)
	}
	_, contended, err := radio.ContentionDisj(inst, payload, rng.New(seed+1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("slotted channel (%d-bit slots):\n", payload)
	fmt.Printf("  polled schedule:   %5d slots (%d data, %d control)\n",
		polled.TotalSlots(), polled.DataSlots, polled.ControlSlots)
	fmt.Printf("  contention (MAC):  %5d slots (%d data, %d control, %d collisions)\n",
		contended.TotalSlots(), contended.DataSlots, contended.ControlSlots, contended.Collisions)
	// Output:
	// fleet: 16 radios, 4096 channels
	// verdict: fleet-wide clear channel exists (e.g. channel 192)
	// airtime used by the Section 5 protocol: 22094 bits in 48 transmissions
	// airtime budget model n·log2(k)+k: 16400 bits (ratio 1.347)
	// naive coordination would cost 49302 bits (2.23× more airtime)
	//
	// slotted channel (32-bit slots):
	//   polled schedule:     727 slots (717 data, 10 control)
	//   contention (MAC):    410 slots (295 data, 115 control, 92 collisions)
}
