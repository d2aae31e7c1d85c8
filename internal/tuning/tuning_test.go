package tuning

import (
	"testing"
	"time"
)

func TestStableRegimeBothPoliciesComplete(t *testing.T) {
	adaptive, err := NewAdaptiveTimer(200*time.Millisecond, 5*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []TimerPolicy{
		FixedTimer{D: 100 * time.Millisecond},
		adaptive,
	} {
		res, err := Run(Config{
			Regime: StableRegime(20*time.Millisecond, 100),
			Policy: policy,
			Seed:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 100 {
			t.Errorf("%s: completed %d/100", policy.Name(), res.Completed)
		}
		if res.Spurious != 0 {
			t.Errorf("%s: %d spurious retransmits on a stable link", policy.Name(), res.Spurious)
		}
	}
}

// TestE8Shape is the core ref [5] claim: when the RTT regime changes, a
// fixed short timer fires spuriously while the adaptive timer re-learns;
// and the adaptive timer recovers faster than a conservatively long fixed
// timer when genuine losses occur.
func TestE8Shape(t *testing.T) {
	regime := StepRegime(50, 10*time.Millisecond, 120*time.Millisecond)

	fixedShort, err := Run(Config{
		Regime: regime, Policy: FixedTimer{D: 30 * time.Millisecond}, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := NewAdaptiveTimer(100*time.Millisecond, 5*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Run(Config{
		Regime: regime, Policy: policy, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fixedShort.Spurious == 0 {
		t.Error("fixed short timer produced no spurious retransmits across a step — test vacuous")
	}
	if adaptive.Spurious >= fixedShort.Spurious {
		t.Errorf("adaptive spurious %d not below fixed-short %d",
			adaptive.Spurious, fixedShort.Spurious)
	}

	// Under genuine loss, the adaptive timer completes faster than a
	// conservative fixed timer because its deadline tracks the true RTT.
	policy2, err := NewAdaptiveTimer(100*time.Millisecond, 5*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	lossRegime := StableRegime(20*time.Millisecond, 100)
	adaptiveLoss, err := Run(Config{
		Regime: lossRegime, Policy: policy2, LossProb: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fixedLong, err := Run(Config{
		Regime: lossRegime, Policy: FixedTimer{D: 500 * time.Millisecond}, LossProb: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if adaptiveLoss.MeanLatency >= fixedLong.MeanLatency {
		t.Errorf("adaptive latency %s not below fixed-long %s",
			adaptiveLoss.MeanLatency, fixedLong.MeanLatency)
	}
}

func TestGiveUpBound(t *testing.T) {
	res, err := Run(Config{
		Regime:     StableRegime(10*time.Millisecond, 10),
		Policy:     FixedTimer{D: 20 * time.Millisecond},
		LossProb:   1.0,
		MaxRetries: 3,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GaveUp != 10 || res.Completed != 0 {
		t.Errorf("gaveUp=%d completed=%d, want 10/0 on dead link", res.GaveUp, res.Completed)
	}
	if res.Retransmits != 30 {
		t.Errorf("retransmits = %d, want 30 (3 per probe)", res.Retransmits)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("missing policy accepted")
	}
	if _, err := Run(Config{Policy: FixedTimer{D: time.Millisecond}}); err == nil {
		t.Error("empty regime accepted")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() (*Result, error) {
		policy, err := NewAdaptiveTimer(100*time.Millisecond, 5*time.Millisecond, time.Second)
		if err != nil {
			return nil, err
		}
		return Run(Config{
			Regime: VolatileRegime(20*time.Millisecond, 30*time.Millisecond, 80),
			Policy: policy, LossProb: 0.1, Seed: 9,
		})
	}
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("same seed differs: %+v vs %+v", a, b)
	}
}
