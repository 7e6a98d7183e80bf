// Command trainverifier trains the dedicated NLI verifier on the Spider
// training split following the paper's §IV-D protocol, reports held-out
// pair accuracy, and optionally saves the model and its calibrated
// threshold as JSON (nli.UnmarshalTrained reads it back).
//
// Usage:
//
//	trainverifier -train 500 -out verifier.json
//	trainverifier -loss ce     # cross-entropy ablation of the focal loss
//
// SIGINT (^C) or SIGTERM aborts between stages — pair collection,
// training, evaluation — with exit code 130 instead of finishing the
// remaining stages; a second signal kills the process immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/nli"
	"cyclesql/internal/nn"
)

// checkpoint exits 130 if the run was interrupted; stages are cheap
// enough individually that between-stage checks keep ^C responsive
// without threading a context through the numeric training loop.
func checkpoint(ctx context.Context) {
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted")
		os.Exit(130)
	}
}

func main() {
	maxTrain := flag.Int("train", 500, "max train-split examples (0 = all)")
	epochs := flag.Int("epochs", 0, "training epochs (0 = default)")
	lossName := flag.String("loss", "focal", "training loss: focal (paper) or ce")
	out := flag.String("out", "", "write the trained model JSON here")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bench := datasets.Spider()
	var loss nn.Loss = nn.PaperFocal
	if *lossName == "ce" {
		loss = nn.CrossEntropy{WPos: 2.7, WNeg: 1.0}
	}
	fmt.Printf("collecting premise-hypothesis pairs from %s train split...\n", bench.Name)
	pairs := core.BuildTrainingPairs(ctx, bench, core.TrainDataConfig{MaxExamples: *maxTrain, Seed: 1})
	pos := 0
	for _, p := range pairs {
		if p.Label == 1 {
			pos++
		}
	}
	fmt.Printf("collected %d pairs (%d entailment, %d contradiction)\n", len(pairs), pos, len(pairs)-pos)
	checkpoint(ctx)

	// Hold out the final 15% for evaluation.
	cut := len(pairs) * 85 / 100
	trainPairs, heldOut := pairs[:cut], pairs[cut:]
	v := nli.Train(trainPairs, nli.TrainConfig{Seed: 2, Epochs: *epochs, Loss: loss})
	checkpoint(ctx)
	fmt.Printf("trained (threshold %.2f); held-out pair accuracy: %.3f\n", v.Threshold, nli.Accuracy(context.Background(), v, heldOut))
	fmt.Printf("strawman comparison on the same pairs: llm=%.3f prebuilt=%.3f\n",
		nli.Accuracy(context.Background(), nli.FewShotLLM{}, heldOut), nli.Accuracy(context.Background(), nli.PrebuiltNLI{}, heldOut))
	checkpoint(ctx)

	if *out != "" {
		data, err := nli.MarshalTrained(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("model written to %s\n", *out)
	}
}
