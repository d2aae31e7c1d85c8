package trust

import (
	"testing"
)

func TestAllHonestDelivers(t *testing.T) {
	res, err := Run(Config{
		Relays: 4, AdversarialFraction: 0, Strategy: StrategyRandom,
		Messages: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate != 1.0 {
		t.Errorf("all-honest success rate = %.3f, want 1.0", res.SuccessRate)
	}
}

func TestTrustBeatsRandomUnderAdversaries(t *testing.T) {
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		var trustRate, randomRate float64
		for seed := int64(0); seed < 3; seed++ {
			tr, err := Run(Config{
				Relays: 8, AdversarialFraction: frac, Strategy: StrategyTrust,
				Messages: 400, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			rr, err := Run(Config{
				Relays: 8, AdversarialFraction: frac, Strategy: StrategyRandom,
				Messages: 400, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			trustRate += tr.SuccessRate
			randomRate += rr.SuccessRate
		}
		trustRate /= 3
		randomRate /= 3
		if trustRate <= randomRate {
			t.Errorf("frac=%.2f: trust %.3f did not beat random %.3f", frac, trustRate, randomRate)
		}
	}
}

func TestLateSuccessShowsLearning(t *testing.T) {
	res, err := Run(Config{
		Relays: 8, AdversarialFraction: 0.5, Strategy: StrategyTrust,
		Messages: 400, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// After learning, the exploit phase should be near-perfect apart from
	// ε-exploration of bad relays.
	if res.LateSuccessRate < 0.8 {
		t.Errorf("late success rate = %.3f, want >= 0.8 after convergence", res.LateSuccessRate)
	}
	if res.LateSuccessRate < res.SuccessRate {
		t.Errorf("late rate %.3f below overall %.3f: no learning visible",
			res.LateSuccessRate, res.SuccessRate)
	}
}

func TestTrustScoresSeparateBehaviours(t *testing.T) {
	res, err := Run(Config{
		Relays: 6, AdversarialFraction: 0.5, Strategy: StrategyTrust,
		Messages: 300, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var honestBest, badBest float64
	for _, r := range res.Relays {
		if r.Behaviour == Honest {
			if r.Score > honestBest {
				honestBest = r.Score
			}
		} else if r.Score > badBest {
			badBest = r.Score
		}
	}
	if honestBest <= badBest {
		t.Errorf("best honest score %.3f not above best adversarial %.3f", honestBest, badBest)
	}
	// Behaviour assignment sanity: 3 adversarial of 6.
	bad := 0
	for _, r := range res.Relays {
		if r.Behaviour != Honest {
			bad++
		}
	}
	if bad != 3 {
		t.Errorf("adversarial relays = %d, want 3", bad)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{
		Relays: 8, AdversarialFraction: 0.5, Strategy: StrategyTrust,
		Messages: 200, Seed: 42,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.SuccessRate != b.SuccessRate || a.LateSuccessRate != b.LateSuccessRate {
		t.Error("same seed, different results")
	}
	for i := range a.Relays {
		if a.Relays[i] != b.Relays[i] {
			t.Errorf("relay %d stats differ", i)
		}
	}
}

func TestCorruptorsAreDetected(t *testing.T) {
	// With only corruptors, failures must come from checksum rejection at
	// the destination (no ack), not silent acceptance of garbage.
	res, err := Run(Config{
		Relays: 2, AdversarialFraction: 1.0, MisbehaveProb: 1.0,
		Strategy: StrategyRandom, Messages: 50, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// relay0 = dropper, relay1 = corruptor, both at p=1.0: nothing can be
	// delivered — and critically nothing corrupt is ever acked.
	if res.SuccessRate != 0 {
		t.Errorf("delivered %.3f of corrupt/dropped messages", res.SuccessRate)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Relays: -1}); err == nil {
		t.Error("negative relays accepted")
	}
}

func TestStringers(t *testing.T) {
	if Honest.String() != "honest" || Dropper.String() != "dropper" || Corruptor.String() != "corruptor" {
		t.Error("behaviour names wrong")
	}
	if StrategyRandom.String() != "random" || StrategyTrust.String() != "trust" {
		t.Error("strategy names wrong")
	}
	if Behaviour(99).String() != "unknown" || Strategy(99).String() != "unknown" {
		t.Error("unknown names wrong")
	}
}
