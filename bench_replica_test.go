// Replication benchmarks: what the out-of-process read replica costs
// (write-to-visible lag over the HTTP stream) and what it buys (read
// throughput served entirely from the replica's own replayed store,
// while the stream keeps applying).
package dissenter_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"dissenter/internal/dissenterweb"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/replica"
)

// startBenchReplica wires a replica to a publisher over the primary
// and returns it running; cleanup stops the stream before the servers
// go away.
func startBenchReplica(b *testing.B, primary *platform.DB, opt replica.Options) *replica.Replica {
	b.Helper()
	pub := httptest.NewServer(&replica.Publisher{DB: primary})
	b.Cleanup(pub.Close)
	rep, err := replica.Open(b.TempDir(), pub.URL, opt)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep.Run(ctx)
	}()
	b.Cleanup(func() {
		cancel()
		<-done
		rep.Close()
	})
	return rep
}

// replicaBenchCorpus event-builds a small store on the primary so the
// replica's state comes entirely off the stream (no snapshot needed).
func replicaBenchCorpus(b *testing.B, db *platform.DB) []*platform.CommentURL {
	b.Helper()
	gen := ids.NewGenerator(0x5EED)
	for i := 0; i < 24; i++ {
		db.AddUser(&platform.User{
			GabID:    ids.GabID(1 + i),
			AuthorID: gen.New(),
			Username: fmt.Sprintf("bench-rep-%02d", i),
		})
	}
	users := allUsers(db)
	var urls []*platform.CommentURL
	for i := 0; i < 32; i++ {
		cu, _ := db.SubmitURL(&platform.CommentURL{
			ID:        gen.New(),
			URL:       fmt.Sprintf("https://bench.example/replica/%d", i),
			FirstSeen: time.Unix(1580000000+int64(i), 0).UTC(),
		})
		urls = append(urls, cu)
		for j := 0; j <= i%5; j++ {
			u := users[(i+j)%len(users)]
			db.AddComment(&platform.Comment{
				ID:        gen.NewAt(time.Unix(1580000100+int64(i*8+j), 0)),
				URLID:     cu.ID,
				AuthorID:  u.AuthorID,
				Text:      fmt.Sprintf("replica bench comment %d/%d", i, j),
				CreatedAt: time.Unix(1580000100+int64(i*8+j), 0).UTC(),
			})
		}
		db.Vote(cu.ID, i%7, i%3)
	}
	return urls
}

// BenchmarkReplicationLag measures write-to-visible latency: one write
// on the primary per iteration, then block until the replica's store
// has applied it off the HTTP stream (fsync on the replica's WAL is on
// the async persister, so this is apply lag, not durability lag).
func BenchmarkReplicationLag(b *testing.B) {
	primary := platform.New(nil, nil, nil, nil)
	urls := replicaBenchCorpus(b, primary)
	rep := startBenchReplica(b, primary, replica.Options{})
	target := primary.EventSeq()
	for rep.Seq() < target {
		time.Sleep(time.Millisecond)
	}
	cu := urls[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		primary.Vote(cu.ID, 1, 0)
		rep.DB().AwaitEvents(primary.EventSeq()-1, nil)
	}
}

// BenchmarkReplicaReadConcurrent is the read half of the pair: parallel
// page fetches against a read-only web server over the replica's store,
// while the primary keeps writing and the stream keeps applying — the
// scale-out case the replica exists for. The server's coherence view
// keeps the response cache coherent, so the hit rate is reported too.
//
// Batched like the other under-load benchmarks (underLoadBatch), so a
// 1x smoke run is not one guaranteed-cold fetch. Discussion reads
// cycle a small hot subset for the same reason the primary-side load
// benchmarks do: crawler locality, not a uniform sweep of the corpus.
// ns/req is per REQUEST.
func BenchmarkReplicaReadConcurrent(b *testing.B) {
	primary := platform.New(nil, nil, nil, nil)
	urls := replicaBenchCorpus(b, primary)

	var handler atomic.Value // *dissenterweb.Server
	bind := func(db *platform.DB) {
		s := dissenterweb.NewServer(db,
			dissenterweb.ReadOnly(),
			dissenterweb.WithURLRateLimit(0, 0))
		handler.Store(s)
	}
	rep := startBenchReplica(b, primary, replica.Options{OnState: bind})
	target := primary.EventSeq()
	for rep.Seq() < target {
		time.Sleep(time.Millisecond)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(*dissenterweb.Server).ServeHTTP(w, r)
	}))
	defer srv.Close()

	// Background write load on the primary for the stream to carry.
	ctx, cancel := context.WithCancel(context.Background())
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			default:
			}
			primary.Vote(urls[i%len(urls)].ID, 1, 0)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	client := benchClient()
	hot := urls[:8]
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			for j := 0; j < underLoadBatch; j++ {
				i++
				switch i % 4 {
				case 0:
					benchGet(b, client, srv.URL+"/trends")
				case 1:
					benchGet(b, client, srv.URL+"/leaderboard")
				default:
					benchGet(b, client, srv.URL+"/discussion?url="+url.QueryEscape(hot[i%len(hot)].URL))
				}
			}
		}
	})
	b.StopTimer()
	cancel()
	<-writerDone

	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*underLoadBatch), "ns/req")
	b.ReportMetric(float64(primary.EventSeq()-rep.Seq()), "replica_lag")
	if hits, misses := handler.Load().(*dissenterweb.Server).CacheStats(); hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses)*100, "cache_hit_pct")
	}
}
