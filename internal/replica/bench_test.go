package replica

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dissenter/internal/platform"
	"dissenter/internal/synth"
)

// BenchmarkReplicaBootstrap times a replica's bring-up against the
// ledger's corpus (1/16 scale, seed 1) behind a Publisher over
// loopback: Open, then Run until the replica is streaming at the
// primary's head — the 410, the snapshot streamed and decoded as it
// arrives, FromCheckpoint, the persister restart, the stream reopened.
// OnState-ms is the part up to the bootstrap's OnState call.
func BenchmarkReplicaBootstrap(b *testing.B) {
	primary := synth.Generate(synth.NewConfig(1.0/16, 1)).DB
	srv := httptest.NewServer(&Publisher{DB: primary})
	defer srv.Close()
	head := primary.EventSeq()

	var total, toState time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var binds atomic.Int32
		var bound atomic.Int64
		start := time.Now()
		rep, err := Open(b.TempDir(), srv.URL, Options{OnState: func(*platform.DB) {
			if binds.Add(1) == 2 {
				bound.Store(int64(time.Since(start)))
			}
		}})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			rep.Run(ctx)
		}()
		for s := rep.Status(); !s.Connected || s.Applied != head || binds.Load() < 2; s = rep.Status() {
			time.Sleep(100 * time.Microsecond)
		}
		total += time.Since(start)
		toState += time.Duration(bound.Load())
		b.StopTimer()
		cancel()
		<-done
		if err := rep.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(total.Seconds()*1e3/float64(b.N), "ms/op")
	b.ReportMetric(toState.Seconds()*1e3/float64(b.N), "OnState-ms")
}
