// Command gencache generates a Go source file containing a
// dynamically stack-cached interpreter: one interpreter copy per cache
// state (the paper's §4 implementation strategy), with the cached
// stack items in function locals.
//
// The checked-in internal/gendyn package was produced by:
//
//	gencache -pkg gendyn -regs 6 -overflow 5 -o internal/gendyn/gendyn.go
//
// It is the only checked-in configuration. The generator's own tests
// build a second one (4 registers, overflow followup 3) on the fly and
// run internal/gendyn's shape-agnostic tests against it.
package main

import (
	"flag"
	"fmt"
	"os"

	"stackcache/internal/gen"
)

func main() {
	var (
		pkg      = flag.String("pkg", "gendyn", "package name")
		regs     = flag.Int("regs", 6, "cache registers")
		overflow = flag.Int("overflow", 5, "overflow followup state")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	src, err := gen.DynamicInterp(*pkg, *regs, *overflow)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gencache: %v\n", err)
		os.Exit(1)
	}
	if *out == "" {
		os.Stdout.Write(src)
		return
	}
	if err := os.WriteFile(*out, src, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "gencache: %v\n", err)
		os.Exit(1)
	}
}
