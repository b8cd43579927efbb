package dissenterweb

import (
	"bytes"
	"compress/gzip"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"dissenter/internal/synth"
)

// TestSmallPageWireSize bounds what respcache's fixed-Huffman kernel
// costs on the wire. Pages under 4 KB (respcache's fixedMax: all but
// four in a thousand of a crawl's) are deflated with the fixed code, not
// with tables built for the page; over every such discussion page of the
// (1/512, seed 33) corpus the gzip bytes served must stay within 1.25x
// of what compress/gzip at BestSpeed — the writer respcache pools for
// everything larger — makes of the same bodies.
func TestSmallPageWireSize(t *testing.T) {
	const fixedMax = 4 << 10
	db := synth.Generate(synth.NewConfig(1.0/512, 33)).DB
	s := NewServer(db, WithURLRateLimit(0, 0))
	var std bytes.Buffer
	zw, err := gzip.NewWriterLevel(&std, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	pages, served, stdlib := 0, 0, 0
	for _, cu := range allURLs(db) {
		get := func(encoding string) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodGet, "/discussion?url="+url.QueryEscape(cu.URL), nil)
			if encoding != "" {
				req.Header.Set("Accept-Encoding", encoding)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			return rec
		}
		body, gz := get("").Body.Bytes(), get("gzip")
		if len(body) >= fixedMax || gz.Header().Get("Content-Encoding") != "gzip" {
			continue
		}
		if got := inflateMember(t, gz.Body.Bytes()); !bytes.Equal(got, body) {
			t.Fatalf("%s: the gzip variant does not inflate to the identity body", cu.URL)
		}
		std.Reset()
		zw.Reset(&std)
		zw.Write(body)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		pages++
		served += gz.Body.Len()
		stdlib += std.Len()
	}
	if pages < 100 {
		t.Fatalf("only %d gzipped pages under %d bytes: the corpus does not exercise the kernel", pages, fixedMax)
	}
	ratio := float64(served) / float64(stdlib)
	t.Logf("%d pages under %d bytes: %d gzip bytes served, %d from compress/gzip (%.3fx)", pages, fixedMax, served, stdlib, ratio)
	if ratio > 1.25 {
		t.Fatalf("small pages cost %.3fx the bytes of compress/gzip on the wire, bound 1.25x", ratio)
	}
}
