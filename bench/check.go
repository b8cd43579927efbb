package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"slices"
	"sync"
)

// Checks that need the run to be over: the identity variant of sampled
// gzip responses, and, after a workload that wrote, that nothing
// acknowledged was lost anywhere in the fleet.

type verdict struct {
	checked, failed int
	failures        []string // the first few, for the report
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.failures) < 5 {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) merge(o *verdict) {
	v.checked += o.checked
	v.failed += o.failed
	v.failures = append(v.failures, o.failures...)
}

func fetch(hc *http.Client, host string, t *target, cookie string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+host+t.path+"?"+t.query, nil)
	if err != nil {
		return nil, nil, err
	}
	if cookie != "" {
		req.Header.Set("Cookie", cookie)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// verifyGzip refetches every sampled page without Accept-Encoding. If
// the page is still at the sampled generation, the identity body must
// hash to what the gzip body inflated to.
func verifyGzip(cs []*client, v *verdict) {
	// DisableCompression keeps the transport from asking for gzip on
	// its own: the answer must be the identity variant.
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer hc.CloseIdleConnections()
	for _, c := range cs {
		for _, s := range c.samples {
			t := &c.p.targets[s.o.target]
			resp, body, err := fetch(hc, c.host, t, c.p.sessions[s.o.session])
			if err != nil {
				v.fail("identity refetch of %s?%s: %v", t.path, t.query, err)
				continue
			}
			if resp.Header.Get("Etag") != s.etag {
				continue // the page moved on; nothing to compare
			}
			v.checked++
			if resp.Header.Get("Content-Encoding") != "" || maphash.Bytes(hashSeed, body) != s.inflated {
				v.fail("%s?%s: gzip variant of %s does not inflate to its identity variant", t.path, t.query, s.etag)
			}
		}
	}
}

// verifyWrites waits for the fleet to quiesce and then checks the write
// path's promises: the primary's WAL is durable to its head, primary
// and replica encode to identical snapshots (both inside converge),
// and every acknowledged comment is on its page on both.
func verifyWrites(f *fleet, cs []*client, v *verdict) {
	if err := f.converge(); err != nil {
		v.fail("after writes: %v", err)
		return
	}
	byTarget := map[int32][]ackedComment{}
	for _, c := range cs {
		for _, a := range c.acked {
			byTarget[a.target] = append(byTarget[a.target], a)
		}
	}
	targets := make([]int32, 0, len(byTarget))
	for t := range byTarget {
		targets = append(targets, t)
	}
	slices.Sort(targets)
	// One checker per server, side by side: each page is a miss that
	// renders and gzips, and the two servers share nothing.
	p := cs[0].p
	hosts := []string{f.primaryHost, f.replicaHost}
	verdicts := make([]verdict, len(hosts))
	var wg sync.WaitGroup
	for i, host := range hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{}}
			defer hc.CloseIdleConnections()
			for _, ti := range targets {
				verifyPage(hc, host, &p.targets[ti], byTarget[ti], &verdicts[i])
			}
		}()
	}
	wg.Wait()
	for i := range verdicts {
		v.merge(&verdicts[i])
	}
}

// verifyPage fetches t from host and checks that every comment in acked
// is on it.
func verifyPage(hc *http.Client, host string, t *target, acked []ackedComment, v *verdict) {
	_, body, err := fetch(hc, host, t, "")
	if err != nil {
		v.fail("page of %s on %s: %v", t.raw, host, err)
		return
	}
	onPage := map[string]bool{}
	for rest := body; ; {
		i := bytes.Index(rest, []byte(commentIDAttr))
		if i < 0 || len(rest) < i+len(commentIDAttr)+24 {
			break
		}
		rest = rest[i+len(commentIDAttr):]
		onPage[string(rest[:24])] = true
	}
	for _, a := range acked {
		v.checked++
		if !onPage[a.id.String()] {
			v.fail("acked comment %s missing from %s on %s", a.id, t.raw, host)
		}
	}
}
