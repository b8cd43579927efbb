package platform

import (
	"fmt"
	"testing"
	"time"

	"dissenter/internal/ids"
)

// BenchmarkAddCommentHotPage posts to ONE page that already holds 1,
// 10, ... 50k comments, 64 authors taking turns: the per-URL listing
// is the only index whose length follows the page. AddComment appends
// into the listing's spare capacity, so ns/op and B/op are the same in
// every decade; a copy-on-write listing copies the page per post (8
// bytes a comment: 400 kB/op at 50k). Each op allocates its Comment
// record, which is part of what a post costs. Run with a fixed
// -benchtime (1000x) to keep the page inside its decade.
func BenchmarkAddCommentHotPage(b *testing.B) {
	for _, page := range []int{1, 10, 100, 1_000, 10_000, 50_000} {
		b.Run(fmt.Sprintf("page=%d", page), func(b *testing.B) {
			gen := ids.NewGenerator(0xB07)
			at := time.Unix(1_584_000_000, 0).UTC()
			var authors [64]ids.ObjectID
			for i := range authors {
				authors[i] = gen.NewAt(at)
			}
			cu := &CommentURL{ID: gen.NewAt(at), URL: "https://bench.test/hot", FirstSeen: at}
			post := func(i int) *Comment {
				at = at.Add(time.Millisecond)
				return &Comment{ID: gen.NewAt(at), URLID: cu.ID, AuthorID: authors[i%len(authors)], Text: "hot page", CreatedAt: at}
			}
			seed := make([]*Comment, page)
			for i := range seed {
				seed[i] = post(i)
			}
			db := New(nil, []*CommentURL{cu}, seed, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.AddComment(post(i))
			}
		})
	}
}
