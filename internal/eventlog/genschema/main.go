// Command genschema writes the eventlog wire-schema lockfile. It is
// run by `go generate ./internal/eventlog`; the committed output is
// what TestWireSchemaUpToDate checks against.
package main

import (
	"flag"
	"log"
	"os"

	"dissenter/internal/eventlog"
)

func main() {
	out := flag.String("out", "testdata/wire_schema.json", "path to write the wire-schema lockfile")
	flag.Parse()
	if err := os.WriteFile(*out, eventlog.WireSchemaJSON(), 0o644); err != nil {
		log.Fatal(err)
	}
}
