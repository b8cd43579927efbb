// Gateway proxy-overhead benchmark: the same cached /trends hit served
// directly by the web server versus through dissenter-gateway's read
// path (probe bookkeeping, candidate selection, buffered body copy).
// The delta is the per-read price of fleet routing.
package dissenter_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"dissenter/internal/dissenterweb"
	"dissenter/internal/gateway"
	"dissenter/internal/replica"
)

// BenchmarkGatewayReadOverhead measures a proxied cached read against
// the identical direct one. The backend is the primary's Root over the
// 1k-URL trends fixture and the front is the gateway's, so the proxied
// path runs exactly as in production: probed backend, fresh tier,
// buffered copy.
func BenchmarkGatewayReadOverhead(b *testing.B) {
	f := sharedFixture(rankingScales[0])
	web := dissenterweb.NewServer(f.db, dissenterweb.WithURLRateLimit(0, 0))
	backend := httptest.NewServer(replica.PrimaryRoot(f.db, nil, web).Handler())
	defer backend.Close()

	gw := gateway.New(backend.URL, nil, gateway.Options{})
	gw.ProbeNow(context.Background())
	front := httptest.NewServer(gw.Root().Handler())
	defer front.Close()

	// A keep-alive client sized for RunParallel's workers.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	get := func(b *testing.B, url string) {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get(b, backend.URL+"/trends") // warm the trends cache once

	for _, bc := range []struct{ name, url string }{
		{"direct", backend.URL + "/trends"},
		{"proxied", front.URL + "/trends"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					get(b, bc.url)
				}
			})
		})
	}
}
