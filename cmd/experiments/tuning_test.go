package main

import (
	"testing"
	"time"
)

func TestStableRegimeBothPoliciesComplete(t *testing.T) {
	adaptive, err := newAdaptiveTimer(200*time.Millisecond, 5*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []timerPolicy{
		fixedTimer{D: 100 * time.Millisecond},
		adaptive,
	} {
		res, err := runProbes(probeConfig{
			Regime: stableRegime(20*time.Millisecond, 100),
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
	regime := stepRegime(50, 10*time.Millisecond, 120*time.Millisecond)

	fixedShort, err := runProbes(probeConfig{
		Regime: regime, Policy: fixedTimer{D: 30 * time.Millisecond}, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := newAdaptiveTimer(100*time.Millisecond, 5*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := runProbes(probeConfig{
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
	policy2, err := newAdaptiveTimer(100*time.Millisecond, 5*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	lossRegime := stableRegime(20*time.Millisecond, 100)
	adaptiveLoss, err := runProbes(probeConfig{
		Regime: lossRegime, Policy: policy2, LossProb: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fixedLong, err := runProbes(probeConfig{
		Regime: lossRegime, Policy: fixedTimer{D: 500 * time.Millisecond}, LossProb: 0.2, Seed: 3,
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
	res, err := runProbes(probeConfig{
		Regime:     stableRegime(10*time.Millisecond, 10),
		Policy:     fixedTimer{D: 20 * time.Millisecond},
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
	if _, err := runProbes(probeConfig{}); err == nil {
		t.Error("missing policy accepted")
	}
	if _, err := runProbes(probeConfig{Policy: fixedTimer{D: time.Millisecond}}); err == nil {
		t.Error("empty regime accepted")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() (*probeResult, error) {
		policy, err := newAdaptiveTimer(100*time.Millisecond, 5*time.Millisecond, time.Second)
		if err != nil {
			return nil, err
		}
		return runProbes(probeConfig{
			Regime: volatileRegime(20*time.Millisecond, 30*time.Millisecond, 80),
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

func BenchmarkE8TimerTuning(b *testing.B) {
	regime := stepRegime(50, 10*time.Millisecond, 120*time.Millisecond)
	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runProbes(probeConfig{
				Regime: regime, Policy: fixedTimer{D: 30 * time.Millisecond},
				LossProb: 0.1, Seed: int64(i),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			policy, err := newAdaptiveTimer(100*time.Millisecond, 5*time.Millisecond, 5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := runProbes(probeConfig{
				Regime: regime, Policy: policy,
				LossProb: 0.1, Seed: int64(i),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
