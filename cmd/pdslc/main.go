// Command pdslc is the protocol-DSL compiler: it checks .pdsl definitions,
// generates Go code, renders wire diagrams and derives behavioural test
// suites.
//
// Usage:
//
//	pdslc check <file.pdsl>            statically check the protocol
//	pdslc gen -pkg NAME <file.pdsl>    emit generated code (default -emit go)
//	pdslc diagram <file.pdsl>          render RFC-style ASCII diagrams
//	pdslc dot <file.pdsl>              render machines as Graphviz digraphs
//	pdslc tests <file.pdsl>            derive behavioural test suites
//
// `gen` selects a backend with -emit (currently only "go", the AOT
// source backend over the compiled wire/fsm programs) and writes to
// stdout or, with -o FILE, atomically to a file — the form used by the
// //go:generate directives in the committed gen packages.
//
// Pass "-" as the file to read from stdin. The shipped protocols live in
// examples/specs (e.g. `pdslc check examples/specs/arq.pdsl`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"protodsl/internal/codegen"
	"protodsl/internal/dsl"
	"protodsl/internal/fsm"
	"protodsl/internal/testgen"
	"protodsl/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pdslc:", err)
		os.Exit(1)
	}
}

// subcommands maps each subcommand to its handler, in usage order; the
// usage message and the dispatch in run both read it.
var subcommands = []struct {
	name string
	fn   func(args []string, out io.Writer) error
}{
	{"check", cmdCheck},
	{"gen", cmdGen},
	{"diagram", cmdDiagram},
	{"dot", cmdDot},
	{"tests", cmdTests},
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		names := make([]string, len(subcommands))
		for i, c := range subcommands {
			names[i] = c.name
		}
		return fmt.Errorf("usage: pdslc <%s> [flags] <file.pdsl | ->", strings.Join(names, "|"))
	}
	for _, c := range subcommands {
		if c.name == args[0] {
			return c.fn(args[1:], out)
		}
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func cmdDot(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dot", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := loadSource(fs)
	if err != nil {
		return err
	}
	proto, _, err := dsl.Compile(src)
	if err != nil {
		return err
	}
	for _, m := range proto.Machines {
		fmt.Fprintln(out, fsm.Dot(m))
	}
	return nil
}

// loadSource resolves the source argument of a subcommand.
func loadSource(fs *flag.FlagSet) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("expected exactly one input file")
	}
	name := fs.Arg(0)
	if name == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", err
		}
		return string(data), nil
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

func cmdCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := loadSource(fs)
	if err != nil {
		return err
	}
	proto, reports, err := dsl.Compile(src)
	if err != nil {
		if len(reports) > 0 {
			for _, r := range reports {
				printReport(out, r)
			}
		}
		return err
	}
	fmt.Fprintf(out, "protocol %s: OK\n", proto.Name)
	fmt.Fprintf(out, "  messages: %d\n", len(proto.MessageOrder))
	for _, name := range proto.MessageOrder {
		layout, err := wire.Compile(proto.Messages[name])
		if err != nil {
			return err
		}
		if size, fixed := layout.FixedSize(); fixed {
			fmt.Fprintf(out, "    %s (%d bytes)\n", name, size)
		} else {
			fmt.Fprintf(out, "    %s (variable size)\n", name)
		}
	}
	fmt.Fprintf(out, "  machines: %d\n", len(proto.Machines))
	for _, r := range reports {
		printReport(out, r)
	}
	return nil
}

func printReport(out io.Writer, r *fsm.Report) {
	status := "OK"
	if !r.OK() {
		status = "FAILED"
	}
	fmt.Fprintf(out, "    %s: %s (%d error(s), %d warning(s))\n",
		r.Spec, status, len(r.Errors()), len(r.Warnings()))
	for _, issue := range r.Issues {
		fmt.Fprintf(out, "      %s\n", issue)
	}
}

// genBackends lists the supported -emit backends. Each entry maps the
// flag value to the generator; an unknown value is reported with the
// full list so callers learn what exists.
var genBackends = []string{"go"}

func cmdGen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	pkg := fs.String("pkg", "gen", "generated package name")
	emit := fs.String("emit", "go", "output backend (supported: go)")
	outFile := fs.String("o", "", "write output to file instead of stdout")
	runtimeImport := fs.String("runtime", "", "genrt import path override")
	if err := fs.Parse(args); err != nil {
		return err
	}
	known := false
	for _, b := range genBackends {
		if *emit == b {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("unknown -emit backend %q (supported: %s)", *emit, strings.Join(genBackends, ", "))
	}
	src, err := loadSource(fs)
	if err != nil {
		return err
	}
	proto, _, err := dsl.Compile(src)
	if err != nil {
		return err
	}
	code, err := codegen.Generate(proto, codegen.Options{
		Package:       *pkg,
		RuntimeImport: *runtimeImport,
	})
	if err != nil {
		return err
	}
	if *outFile != "" {
		return os.WriteFile(*outFile, code, 0o644)
	}
	_, err = out.Write(code)
	return err
}

func cmdDiagram(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("diagram", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := loadSource(fs)
	if err != nil {
		return err
	}
	proto, err := dsl.Parse(src)
	if err != nil {
		return err
	}
	for _, name := range proto.MessageOrder {
		fmt.Fprintf(out, "message %s:\n\n%s\n", name, wire.Diagram(proto.Messages[name]))
	}
	return nil
}

func cmdTests(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tests", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := loadSource(fs)
	if err != nil {
		return err
	}
	proto, _, err := dsl.Compile(src)
	if err != nil {
		return err
	}
	for _, m := range proto.Machines {
		suite, err := testgen.Generate(m, testgen.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "machine %s: %d cases (fire=%d reject=%d ignore=%d), transition coverage %.0f%%\n",
			m.Name, len(suite.Cases),
			suite.Count(testgen.KindFire), suite.Count(testgen.KindReject), suite.Count(testgen.KindIgnore),
			100*suite.Coverage())
		for _, c := range suite.Cases {
			fmt.Fprintf(out, "  [%s] %s\n", c.Kind, c.Name)
		}
		if err := testgen.Run(m, suite); err != nil {
			return fmt.Errorf("machine %s: generated suite failed: %w", m.Name, err)
		}
		fmt.Fprintf(out, "  suite replayed: PASS\n")
	}
	return nil
}
