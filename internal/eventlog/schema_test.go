package eventlog

import (
	"bytes"
	"os"
	"testing"

	"dissenter/internal/platform"
)

// TestWireSchemaUpToDate pins the committed lockfile to the live
// struct shapes: any change — a removed, retyped or reordered field
// (a wire break) or an appended one (wire-legal) — fails here until
// the regenerated lockfile is committed alongside it.
func TestWireSchemaUpToDate(t *testing.T) {
	want := WireSchemaJSON()
	got, err := os.ReadFile("testdata/wire_schema.json")
	if err != nil {
		t.Fatalf("wire-schema lockfile missing (run `go generate ./internal/eventlog`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("testdata/wire_schema.json is stale; run `go generate ./internal/eventlog` and commit the result\n--- committed ---\n%s\n--- live ---\n%s", got, want)
	}
}

// TestWireSchemaCoversEveryEvent keeps the schema honest about scope:
// every event the codec round-trips must have its payload struct
// locked.
func TestWireSchemaCoversEveryEvent(t *testing.T) {
	locked := map[string]bool{}
	for _, ws := range WireSchema() {
		if ws.Event != "" {
			locked[ws.Event] = true
		}
	}
	for _, rec := range goldenRecords() {
		name := platform.EventName(rec.Event)
		if !locked[name] {
			t.Errorf("event %q has no locked wire struct in WireSchema()", name)
		}
	}
}
