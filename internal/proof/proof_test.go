package proof

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

type packet struct {
	Seq     uint8
	Chk     uint8
	Payload []byte
}

func sum8(seq uint8, payload []byte) uint8 {
	s := uint64(seq)
	for _, b := range payload {
		s += uint64(b)
	}
	return uint8(s)
}

func packetValidator() *Validator[packet] {
	return NewValidator[packet]("packet",
		Check[packet]{Name: "checksum", Fn: func(p packet) error {
			if sum8(p.Seq, p.Payload) != p.Chk {
				return fmt.Errorf("checksum %d != computed %d", p.Chk, sum8(p.Seq, p.Payload))
			}
			return nil
		}},
		Check[packet]{Name: "payload-size", Fn: func(p packet) error {
			if len(p.Payload) > 1024 {
				return fmt.Errorf("payload too large: %d", len(p.Payload))
			}
			return nil
		}},
	)
}

func TestValidateIssuesWitness(t *testing.T) {
	v := packetValidator()
	p := packet{Seq: 1, Payload: []byte{10, 20}}
	p.Chk = sum8(p.Seq, p.Payload)
	checked, err := v.Validate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !checked.Valid() {
		t.Error("issued witness reports invalid")
	}
	if got := checked.Value(); got.Seq != 1 {
		t.Errorf("Value().Seq = %d", got.Seq)
	}
	cert := checked.Certificate()
	if cert.validator != "packet" {
		t.Errorf("certificate validator = %q", cert.validator)
	}
	for _, c := range []string{"checksum", "payload-size"} {
		if !cert.Establishes(c) {
			t.Errorf("certificate does not establish %q", c)
		}
	}
	if cert.Establishes("nonexistent") {
		t.Error("certificate establishes a check it never ran")
	}
	if len(cert.Established()) != 2 {
		t.Errorf("Established() = %v", cert.Established())
	}
}

func TestValidateRejects(t *testing.T) {
	v := packetValidator()
	p := packet{Seq: 1, Chk: 99, Payload: []byte{10}}
	checked, err := v.Validate(p)
	if err == nil {
		t.Fatal("Validate accepted a corrupt packet")
	}
	if checked.Valid() {
		t.Error("rejected value produced a valid witness")
	}
	if !errors.Is(err, ErrCheckFailed) {
		t.Errorf("err = %v, want ErrCheckFailed class", err)
	}
	var cerr *CheckError
	if !errors.As(err, &cerr) {
		t.Fatalf("err type = %T", err)
	}
	if cerr.Check != "checksum" {
		t.Errorf("failing check = %q, want checksum", cerr.Check)
	}
}

func TestChecksRunInOrderAndStopAtFirstFailure(t *testing.T) {
	var ran []string
	v := NewValidator[int]("ordered",
		Check[int]{Name: "a", Fn: func(int) error { ran = append(ran, "a"); return nil }},
		Check[int]{Name: "b", Fn: func(int) error { ran = append(ran, "b"); return errors.New("no") }},
		Check[int]{Name: "c", Fn: func(int) error { ran = append(ran, "c"); return nil }},
	)
	if _, err := v.Validate(0); err == nil {
		t.Fatal("want failure")
	}
	if len(ran) != 2 || ran[0] != "a" || ran[1] != "b" {
		t.Errorf("ran = %v, want [a b]", ran)
	}
}

func TestZeroCheckedIsInvalid(t *testing.T) {
	var c Checked[packet]
	if c.Valid() {
		t.Error("zero Checked reports valid")
	}
	if c.Certificate().validator != "" {
		t.Error("zero Checked has a certificate")
	}
}

// Property: a witness exists iff validation passes — i.e. possession of a
// valid Checked[packet] implies the checksum relation holds (the paper's
// "existence of a value of type ChkPacket p implies that p is valid").
func TestQuickWitnessSoundness(t *testing.T) {
	v := packetValidator()
	f := func(seq, chk uint8, payload []byte) bool {
		if len(payload) > 1024 {
			payload = payload[:1024]
		}
		p := packet{Seq: seq, Chk: chk, Payload: payload}
		checked, err := v.Validate(p)
		valid := sum8(seq, payload) == chk
		if valid {
			return err == nil && checked.Valid()
		}
		return err != nil && !checked.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCertificateStringAndCopy(t *testing.T) {
	v := packetValidator()
	p := packet{Seq: 0, Payload: nil}
	p.Chk = sum8(p.Seq, p.Payload)
	checked, err := v.Validate(p)
	if err != nil {
		t.Fatal(err)
	}
	cert := checked.Certificate()
	if cert.String() == "" {
		t.Error("empty certificate string")
	}
	// Mutating the returned slice must not affect the certificate.
	est := cert.Established()
	est[0] = "tampered"
	if cert.Establishes("tampered") {
		t.Error("certificate internals exposed by Established()")
	}
}
