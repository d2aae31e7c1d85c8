package faults

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestValidateRejectsBadSchedules(t *testing.T) {
	cases := []struct {
		name string
		sch  Schedule
	}{
		{"probability above one", Schedule{Gilbert: &GilbertElliott{PGoodBad: 1.5}}},
		{"negative probability", Schedule{Gilbert: &GilbertElliott{LossBad: -0.1}}},
		{"empty window", Schedule{Events: []Event{{Kind: Partition, From: ms(10), Until: ms(10)}}}},
		{"inverted window", Schedule{Events: []Event{{Kind: Blackhole, From: ms(20), Until: ms(10)}}}},
		{"unknown kind", Schedule{Events: []Event{{Kind: "meteor", From: 0, Until: ms(10)}}}},
		{"spike without delay", Schedule{Events: []Event{{Kind: DelaySpike, From: 0, Until: ms(10)}}}},
	}
	for _, tc := range cases {
		if err := tc.sch.Validate(); !errors.Is(err, ErrSchedule) {
			t.Errorf("%s: Validate() = %v, want ErrSchedule", tc.name, err)
		}
		if _, err := tc.sch.Instance(0); err == nil {
			t.Errorf("%s: Instance accepted an invalid schedule", tc.name)
		}
	}
}

func TestPartitionWindowDropsEverything(t *testing.T) {
	sch := Schedule{Events: []Event{{Kind: Partition, From: ms(100), Until: ms(200)}}}
	inj := sch.MustInstance(0)
	dropped := 0
	for _, tc := range []struct {
		at   time.Duration
		drop bool
	}{
		{ms(99), false}, {ms(100), true}, {ms(150), true}, {ms(199), true}, {ms(200), false},
	} {
		v := inj.Apply(tc.at)
		if v.Drop != tc.drop {
			t.Errorf("at %s: drop=%v, want %v", tc.at, v.Drop, tc.drop)
		}
		if v.Drop {
			dropped++
		}
	}
	if dropped != 3 {
		t.Errorf("dropped %d packets, want 3", dropped)
	}
}

func TestGilbertElliottBurstsAndRate(t *testing.T) {
	// Mean burst 1/PBadGood = 10 packets; stationary bad share
	// PGoodBad/(PGoodBad+PBadGood) = 1/11 ≈ 0.09 → loss ≈ 9%.
	sch := Schedule{
		Seed:    7,
		Gilbert: &GilbertElliott{PGoodBad: 0.01, PBadGood: 0.1, LossGood: 0, LossBad: 1},
	}
	inj := sch.MustInstance(0)
	const n = 200000
	drops, bursts, run, maxRun := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		if inj.Apply(time.Duration(i) * time.Microsecond).Drop {
			drops++
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			if run > 0 {
				bursts++
			}
			run = 0
		}
	}
	rate := float64(drops) / n
	if math.Abs(rate-1.0/11) > 0.02 {
		t.Errorf("loss rate %.3f, want ≈ %.3f", rate, 1.0/11)
	}
	meanBurst := float64(drops) / float64(bursts)
	if meanBurst < 5 || meanBurst > 20 {
		t.Errorf("mean burst length %.1f, want ≈ 10 (bursty, not i.i.d.)", meanBurst)
	}
	if maxRun < 15 {
		t.Errorf("max burst %d packets: losses are not bursting", maxRun)
	}
}

func TestDelaySpikeAndJitterRamp(t *testing.T) {
	sch := Schedule{
		Seed: 3,
		Events: []Event{
			{Kind: DelaySpike, From: ms(0), Until: ms(100), Extra: ms(40)},
			{Kind: JitterRamp, From: ms(200), Until: ms(400), Extra: ms(50)},
		},
	}
	inj := sch.MustInstance(0)
	if v := inj.Apply(ms(50)); v.Delay != ms(40) {
		t.Errorf("inside spike: delay %s, want 40ms", v.Delay)
	}
	if v := inj.Apply(ms(150)); v.Delay != 0 {
		t.Errorf("between windows: delay %s, want 0", v.Delay)
	}
	// The ramp's ceiling at its midpoint is Extra/2: draws must stay
	// under it, and over many draws approach it.
	var max time.Duration
	for i := 0; i < 1000; i++ {
		v := inj.Apply(ms(300))
		if v.Delay > ms(25) {
			t.Fatalf("ramp midpoint delay %s exceeds 25ms ceiling", v.Delay)
		}
		if v.Delay > max {
			max = v.Delay
		}
	}
	if max < ms(20) {
		t.Errorf("ramp midpoint max draw %s: jitter not reaching its ceiling", max)
	}
}

func TestReplayIsBitIdentical(t *testing.T) {
	sch := Schedule{
		Seed:    42,
		Gilbert: &GilbertElliott{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.9},
		Events: []Event{
			{Kind: Partition, From: ms(100), Until: ms(150)},
			{Kind: JitterRamp, From: ms(200), Until: ms(300), Extra: ms(10)},
		},
	}
	a, b := sch.MustInstance(0), sch.MustInstance(0)
	other := sch.MustInstance(1)
	diverged := false
	for i := 0; i < 5000; i++ {
		at := time.Duration(i) * 100 * time.Microsecond
		va, vb := a.Apply(at), b.Apply(at)
		if va != vb {
			t.Fatalf("packet %d: same schedule+id diverged: %+v vs %+v", i, va, vb)
		}
		if va != other.Apply(at) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("instance ids 0 and 1 produced identical streams: per-shard seeding broken")
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	sch := &Schedule{
		Seed:    99,
		Gilbert: &GilbertElliott{PGoodBad: 0.02, PBadGood: 0.25, LossBad: 0.95},
		Events: []Event{
			{Kind: Partition, From: ms(500), Until: ms(900)},
			{Kind: DelaySpike, From: ms(1000), Until: ms(1200), Extra: ms(30)},
			{Kind: PeerCrash, From: ms(2000), Until: ms(2500)},
		},
	}
	raw, err := json.Marshal(sch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != sch.Seed || len(back.Events) != len(sch.Events) ||
		*back.Gilbert != *sch.Gilbert || back.Events[1].Extra != ms(30) {
		t.Errorf("round trip mismatch: %+v", back)
	}
	// The two injectors must then replay identically.
	a, b := sch.MustInstance(0), back.MustInstance(0)
	for i := 0; i < 2000; i++ {
		at := time.Duration(i) * time.Millisecond
		if a.Apply(at) != b.Apply(at) {
			t.Fatalf("packet %d: parsed schedule diverged from original", i)
		}
	}
}

// TestLoadReadsAFile pins Load, the reader of protosim's -faults file:
// it gives Parse's schedule, and a missing or malformed file is an
// error that names the path.
func TestLoadReadsAFile(t *testing.T) {
	dir := t.TempDir()
	raw := []byte(`{"seed":7,"gilbert":{"p_good_bad":0.02,"p_bad_good":0.25,"loss_bad":0.9},` +
		`"events":[{"kind":"partition","from":500000000,"until":900000000}]}`)
	path := filepath.Join(dir, "chaos.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Load = %+v, Parse = %+v", got, want)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"seed":`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{filepath.Join(dir, "missing.json"), bad} {
		if _, err := Load(p); err == nil || !strings.Contains(err.Error(), p) {
			t.Errorf("Load(%s) = %v, want an error naming the path", p, err)
		}
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"seed":1,"gilbrt":{}}`)); !errors.Is(err, ErrSchedule) {
		t.Errorf("typo'd field accepted: %v", err)
	}
}

func TestCrashesExtractsKillList(t *testing.T) {
	sch := Schedule{Events: []Event{
		{Kind: Partition, From: 0, Until: ms(10)},
		{Kind: PeerCrash, From: ms(20), Until: ms(30)},
		{Kind: PeerCrash, From: ms(50), Until: ms(60)},
	}}
	crashes := sch.Crashes()
	if len(crashes) != 2 || crashes[0].From != ms(20) || crashes[1].From != ms(50) {
		t.Errorf("Crashes() = %+v", crashes)
	}
	// Per-packet injection ignores crash windows.
	inj := sch.MustInstance(0)
	if v := inj.Apply(ms(25)); v.Drop || v.Delay != 0 {
		t.Errorf("peer_crash window affected packet verdict: %+v", v)
	}
}
