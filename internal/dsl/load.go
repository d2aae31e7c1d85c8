package dsl

import (
	"fmt"
	"sync"
)

// Load returns the loader of an embedded spec (examples/specs): a
// function that compiles src on its first call and hands every caller
// the same immutable *Protocol, or the same error. Engines instantiate
// machines from its Programs and codecs from its Layouts, so a process
// compiles each protocol once however many engines it builds.
//
// Beyond Compile's checks, the loader refuses a protocol in which a
// machine's view of a message does not share that message's wire field
// layout. Engines rely on that parity to hand wire decode frames
// straight to Machine.StepEv and machine output frames straight to the
// wire encoders, so it is asserted here once instead of per engine.
func Load(src string) func() (*Protocol, error) {
	return sync.OnceValues(func() (*Protocol, error) {
		proto, _, err := Compile(src)
		if err != nil {
			return nil, err
		}
		for i, prog := range proto.Programs {
			for _, name := range proto.MessageOrder {
				shape := prog.MsgShape(name)
				if shape != nil && !shape.SameLayout(proto.Layouts[name].Program().Shape()) {
					return nil, fmt.Errorf("dsl: protocol %s: machine %s and the wire program disagree on message %s",
						proto.Name, proto.Machines[i].Name, name)
				}
			}
		}
		return proto, nil
	})
}
