// Quickstart: define a protocol in the DSL, statically check it, render
// its wire diagram, run its machine, derive its tests and generate Go
// code — the complete tour of the public API in one small program.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"protodsl"
)

// A tiny ping/pong protocol: one message, one machine.
const source = `protocol pingpong {
    message Ping {
        seq: u16
        crc: u32 = checksum crc32
        body: bytes[*]
    }

    machine Pinger {
        var seq: u16

        init state Idle
        state Waiting
        final state Done

        event GO(data: bytes)
        event PONG(p: Ping)
        event STOP

        on GO from Idle to Waiting as go {
            send Ping(seq: seq, body: data)
        }
        on PONG from Waiting to Idle as pong when p.seq == seq {
            set seq = seq + 1
        }
        on STOP from Idle to Done as stop

        ignore PONG in Idle
        ignore STOP in Waiting
        ignore GO in Waiting
    }
}`

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. Compile: parse + every static check. A protocol that compiles
	//    is correct by construction — unsound or incomplete machines are
	//    rejected here, before anything can run.
	proto, reports, err := protodsl.CompileProtocol(source)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	fmt.Fprintf(w, "compiled protocol %q: %d message(s), %d machine(s)\n",
		proto.Name, len(proto.MessageOrder), len(proto.Machines))
	for _, r := range reports {
		fmt.Fprintf(w, "  machine %s: %d error(s), %d warning(s)\n",
			r.Spec, len(r.Errors()), len(r.Warnings()))
	}

	// 2. The wire layout, rendered as the canonical RFC-style picture.
	fmt.Fprintln(w, "\nwire format:")
	fmt.Fprintln(w, protodsl.Diagram(proto.Messages["Ping"]))

	// 3. Encode and decode a message. Decoding validates the CRC; the
	//    values are only handed out once every check passed. The layout
	//    was already compiled by CompileProtocol.
	layout, ok := proto.Layout("Ping")
	if !ok {
		return fmt.Errorf("no compiled layout for Ping")
	}
	encoded, err := layout.Encode(map[string]protodsl.Value{
		"seq":  protodsl.U16(1),
		"body": protodsl.BytesValue([]byte("hello")),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "encoded Ping: %x\n", encoded)
	decoded, err := layout.Decode(encoded)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "decoded seq=%d body=%q (crc verified)\n",
		decoded["seq"].AsUint(), decoded["body"].RawBytes())

	// 4. Execute the machine. Only transitions the checked spec declares
	//    can fire; everything else is an error or an explicit ignore.
	//    CompileProtocol already lowered the machine to its compiled
	//    dispatch program, so instantiation is check-free.
	machine, err := proto.NewMachine(proto.Machines[0].Name)
	if err != nil {
		return err
	}
	goEv, okGo := machine.EventID("GO")
	pongEv, okPong := machine.EventID("PONG")
	stopEv, okStop := machine.EventID("STOP")
	if !okGo || !okPong || !okStop {
		return fmt.Errorf("machine %s lacks GO, PONG or STOP", machine.Spec().Name)
	}
	res, err := machine.StepEv(goEv, protodsl.BytesValue([]byte("ping!")))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nGO: %s -> %s, emitted %d message(s)\n", res.From, res.To, len(res.Outputs))
	for _, out := range res.Outputs {
		fmt.Fprintf(w, "  %s:", out.Message)
		for i := 0; i < out.Shape.NumFields(); i++ {
			if v := out.Frame.Get(i); v.IsValid() { // crc is the codec's to compute
				fmt.Fprintf(w, " %s=%s", out.Shape.FieldName(i), v)
			}
		}
		fmt.Fprintln(w)
	}

	pong := protodsl.MsgValue("Ping", map[string]protodsl.Value{
		"seq": protodsl.U16(0), "crc": protodsl.U32(0), "body": protodsl.BytesValue(nil),
	})
	res, err = machine.StepEv(pongEv, pong)
	if err != nil {
		return err
	}
	seq, _ := machine.Var("seq")
	fmt.Fprintf(w, "PONG: %s -> %s, seq now %d\n", res.From, res.To, seq.AsUint())

	if _, err := machine.StepEv(stopEv); err != nil {
		return err
	}
	fmt.Fprintf(w, "STOP: machine finished in state %s\n", machine.State())

	// 5. Derive the behavioural test suite the definition implies (§2.3).
	suite, err := protodsl.GenerateTests(proto.Machines[0])
	if err != nil {
		return err
	}
	if err := protodsl.RunTests(proto.Machines[0], suite); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nauto-generated tests: %d cases, %.0f%% transition coverage — replay PASS\n",
		len(suite.Cases), 100*suite.Coverage())

	// 6. Generate Go code: typed per-state machines + inline codecs.
	code, err := protodsl.Generate(proto, protodsl.GenerateOptions{Package: "pingpong"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "generated %d bytes of Go (try `pdslc gen` to see it)\n", len(code))
	return nil
}
