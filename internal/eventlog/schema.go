package eventlog

import (
	"bytes"
	"encoding/json"
	"reflect"

	"dissenter/internal/platform"
)

//go:generate go run ./genschema -out testdata/wire_schema.json

// The codec derives wire layout from declared field order: record
// bodies write fields in struct order (appendUser/appendURL/
// appendComment) and the flag words pack bits in struct order
// (packUserFlags/packViewFilters). That makes the declared shape of
// these structs — names, types, order — the de-facto wire contract
// with every log and snapshot already on disk and every replica
// already streaming. WireSchema reifies that shape; go generate
// writes it to testdata/wire_schema.json, and TestWireSchemaUpToDate
// fails CI on ANY difference between the two, so no shape change lands
// without the lockfile's diff in front of a reviewer. Appending fields
// is the one legal evolution (the decoder's forward-compat path
// already tolerates longer bodies); what pins the bytes already on
// disk is the codec's golden files and FuzzRoundTrip.

// WireField is one locked struct field.
type WireField struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// WireStruct is the locked declared shape of one codec-encoded struct.
// Event is the wire name of the event the struct is the payload of,
// empty for structs encoded inline (the packed flag words).
type WireStruct struct {
	Event  string      `json:"event,omitempty"`
	Struct string      `json:"struct"`
	Fields []WireField `json:"fields"`
}

type wireSchemaDoc struct {
	Format  int          `json:"format"`
	Structs []WireStruct `json:"structs"`
}

// WireSchema returns the declared shape of every struct the codec's
// wire layout depends on.
func WireSchema() []WireStruct {
	src := []struct {
		event string
		t     reflect.Type
	}{
		{platform.EventName(platform.UserAdded{}), reflect.TypeOf(platform.User{})},
		{"", reflect.TypeOf(platform.UserFlags{})},
		{"", reflect.TypeOf(platform.ViewFilters{})},
		{platform.EventName(platform.URLSubmitted{}), reflect.TypeOf(platform.CommentURL{})},
		{platform.EventName(platform.CommentAdded{}), reflect.TypeOf(platform.Comment{})},
		{platform.EventName(platform.FollowAdded{}), reflect.TypeOf(platform.FollowAdded{})},
		{platform.EventName(platform.VoteCast{}), reflect.TypeOf(platform.VoteCast{})},
	}
	out := make([]WireStruct, 0, len(src))
	for _, s := range src {
		ws := WireStruct{Event: s.event, Struct: s.t.Name()}
		for i := 0; i < s.t.NumField(); i++ {
			f := s.t.Field(i)
			ws.Fields = append(ws.Fields, WireField{Name: f.Name, Type: f.Type.String()})
		}
		out = append(out, ws)
	}
	return out
}

// WireSchemaJSON renders WireSchema in the lockfile encoding: indented
// JSON with a trailing newline, byte-stable for equality checks.
func WireSchemaJSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "\t")
	if err := enc.Encode(wireSchemaDoc{Format: 1, Structs: WireSchema()}); err != nil {
		panic(err) // fixed input: cannot fail
	}
	return buf.Bytes()
}
