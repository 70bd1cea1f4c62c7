// Command lqo-lint is the workbench's invariant multichecker: the
// analyzers registered in internal/lint (lqo-lint -list names them),
// plus the lintignore suppression policer, run over every package of
// the module. See DESIGN.md "Static invariants" for the contract each
// analyzer encodes.
//
// Usage:
//
//	lqo-lint            # lint the enclosing module (same as ./...)
//	lqo-lint ./...      # ditto
//	lqo-lint <dir>      # lint a stand-alone fixture package directory
//	lqo-lint -list      # print the registered analyzers
//	lqo-lint -json .    # one JSON diagnostic per line, suppressed included
//
// Exit status is 0 when clean, 1 when any unsuppressed diagnostic is
// reported, and 2 on usage or load errors (including matching zero
// packages).
package main

import (
	"os"

	"lqo/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
