// Command qecc emits the QECC encoder benchmark circuits as QASM and
// inspects their stabilizer codes.
//
// Usage:
//
//	qecc -list                       # available codes
//	qecc -code '[[7,1,3]]'           # print the encoder QASM
//	qecc -code '[[23,1,7]]' -gens    # print the stabilizer generators
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/circuits"
	"repro/internal/gates"
	"repro/internal/qidg"
	"repro/internal/stabilizer"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qecc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		code = fs.String("code", "", "code name, e.g. '[[9,1,3]]'")
		list = fs.Bool("list", false, "list available codes")
		gens = fs.Bool("gens", false, "print stabilizer generators instead of the circuit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "qecc:", err)
		return 1
	}
	if *list {
		for _, b := range circuits.All() {
			g, err := qidg.Build(b.Program)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "%-12s %2d qubits, %3d gates, ideal latency %v (%s)\n",
				b.Name, b.Program.NumQubits(), len(b.Program.Gates()),
				g.CriticalPathLatency(gates.Default()), b.Source)
		}
		return 0
	}
	if *code == "" {
		return fail(fmt.Errorf("-code or -list required"))
	}
	if *gens {
		for _, c := range stabilizer.KnownCodes() {
			if c.Name == *code {
				for i := 0; i < c.N-c.K; i++ {
					fmt.Fprintln(stdout, c.GeneratorString(i))
				}
				return 0
			}
		}
		return fail(fmt.Errorf("unknown code %q", *code))
	}
	b, err := circuits.ByName(*code)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, b.Program.String())
	return 0
}
