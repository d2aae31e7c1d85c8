// Adaptive media stream (§1.1, ref [1]): a sender streams over a link
// whose available bandwidth swings between levels (a synthetic stand-in
// for the paper's wireless conditions). A fuzzy-logic controller adapts
// the send rate from observed loss and is compared against two fixed
// rates — the "adaptation capability" behavioural hook.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"protodsl"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Capacity trace: long swings between congestion and headroom.
	capacities := protodsl.SteppedCapacity(
		[]float64{900, 250, 700, 120, 850, 400}, 30)

	ctrl, err := protodsl.NewRateController(50, 1000, 500)
	if err != nil {
		return err
	}
	senders := []struct {
		name   string
		sender protodsl.StreamSender
	}{
		{"fuzzy adaptive", protodsl.FuzzySender{Controller: ctrl}},
		{"fixed 800", protodsl.FixedSender{RateValue: 800}},
		{"fixed 120", protodsl.FixedSender{RateValue: 120}},
	}

	fmt.Fprintf(w, "streaming over %d intervals, capacity %0.f..%0.f units/s\n\n",
		len(capacities), 120.0, 900.0)
	var fuzzy *protodsl.StreamResult
	for _, s := range senders {
		res, err := protodsl.SimulateStream(capacities, s.sender)
		if err != nil {
			return err
		}
		if s.name == "fuzzy adaptive" {
			fuzzy = res
		}
		fmt.Fprintf(w, "%-15s delivered %7.1f/interval, loss %5.1f%%, utilisation %5.1f%%\n",
			s.name, res.AvgDelivered, 100*res.AvgLoss, 100*res.Utilisation)
	}

	// Trace the fuzzy sender through one capacity drop to show the
	// adaptation in action.
	fmt.Fprintln(w, "\nfuzzy sender tracking a capacity drop (intervals 25..40):")
	fmt.Fprintln(w, "  interval  capacity  offered  delivered  loss")
	for i := 25; i <= 40 && i < len(fuzzy.Steps); i++ {
		st := fuzzy.Steps[i]
		bar := strings.Repeat("#", int(st.Offered/25))
		fmt.Fprintf(w, "  %8d  %8.0f  %7.0f  %9.0f  %4.0f%%  %s\n",
			i, st.Capacity, st.Offered, st.Delivered, 100*st.Loss, bar)
	}
	return nil
}
