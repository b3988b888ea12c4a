package main

import "fmt"

// noise runs the selected workloads o.noise times back to back, each time
// with another seed as the driver does, and compares the spread of every
// end-to-end metric — the distance between its quartiles as a share of its
// median, the driver's own statistic — with the metric's bound. This is how
// the bounds in BENCHMARK.json were set and how they are re-checked.
func noise(o *options) error {
	values := map[string][]float64{} // "workload/metric" → one value per round
	var order []string
	for round := 0; round < o.noise; round++ {
		fmt.Printf("\n#### noise round %d of %d\n", round+1, o.noise)
		reports, err := suite(o)
		if err != nil {
			return err
		}
		for _, r := range reports {
			if r.Failed > 0 {
				return fmt.Errorf("%s: %d ops failed", r.Workload, r.Failed)
			}
			for _, m := range endToEnd {
				key := r.Workload + "/" + m.name
				if _, ok := values[key]; !ok {
					order = append(order, key)
				}
				values[key] = append(values[key], r.Metrics[m.name].Value)
			}
		}
		o.seed++
	}

	fmt.Printf("\n#### spread over %d rounds (IQR ÷ median) against each bound\n", o.noise)
	over := 0
	for i, key := range order {
		m := endToEnd[i%len(endToEnd)]
		spread := relSpread(values[key])
		verdict := "ok"
		switch {
		case m.name == "setup_s":
			verdict = "not gated" // the driver compares its medians only
		case spread > m.bound:
			verdict = "OVER THE BOUND"
			over++
		case spread > m.bound/3:
			verdict = "over a third of the bound"
		}
		fmt.Printf("  %-30s median %12.6g  spread %6.2f%%  bound %5.1f%%  %s\n",
			key, median(values[key]), 100*spread, 100*m.bound, verdict)
	}
	if over > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound", over)
	}
	return nil
}
