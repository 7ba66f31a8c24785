// Command emtool is the operator's toolbox around a running or stored
// matcher: it maintains the snapshot store emserve warm-starts from,
// validates the trace and flight-evidence files the other binaries write,
// and watches a live service or fleet.
//
// Usage:
//
//	emtool snap  <ls|info|verify|gc|train> -store dir [flags] [hash|ref]
//	emtool trace [-stages|-flight] file.jsonl [more.jsonl ...]
//	emtool watch [-url http://localhost:8080 | -addr URL ... | -fleet URL] [flags]
//
// snap.go, trace.go and watch.go document each subcommand.
//
// Exit codes: 0 success, 1 failure (a corrupt artifact, an invalid trace,
// an unreachable service), 2 usage error, 3 when watch saw an SLO breach.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks a command line the subcommand could not accept.
type usageError struct{ error }

// errBreach is how watch reports that it stopped on an SLO breach.
var errBreach = errors.New("SLO BREACH")

func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch sub := args[0]; sub {
	case "snap":
		err = snapMain(args[1:])
	case "trace":
		err = traceMain(args[1:])
	case "watch":
		err = watchMain(args[1:], stdout)
	default:
		err = usageError{fmt.Errorf("unknown subcommand %q", sub)}
	}
	var ue usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errBreach):
		fmt.Fprintln(stderr, "emtool watch:", err)
		return 3
	case errors.As(err, &ue):
		fmt.Fprintln(stderr, "emtool:", err)
		usage(stderr)
		return 2
	}
	fmt.Fprintf(stderr, "emtool %s: %v\n", args[0], err)
	return 1
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: emtool snap  <ls|info|verify|gc|train> -store dir [-dry-run] [-matcher m] [-seed N] [-parallel N] [-ref name] [hash|ref]
       emtool trace [-stages|-flight] file.jsonl [more.jsonl ...]
       emtool watch [-url URL | -addr URL ... | -fleet URL] [-interval 1s] [-n 0] [-plain] [-once] [-exit-on-breach=true]`)
}
